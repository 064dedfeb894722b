package gaahttp

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestResponseRetentionBounded pins what the section 7.2 response path —
// notify, blacklist, firewall block, audit, all journaled — keeps per
// attack: the attacker's address, not the attack. (a) First-contact
// attacks from 20 000 sources, one in four a 1.2 KB overflow, cost at
// most 160 B each beyond a fixed 2 MiB (the parent kept every alert:
// ~600 B each). (b) 1 100 denials of 16 KiB paths grow the heap by at
// most 16 MiB: the mailbox and the audit ring keep a 4 KiB prefix of
// each, for their last 1 024 (the parent kept them whole: ~50 MiB).
// (c) The mailbox still counts every alert.
func TestResponseRetentionBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("heap readings include the race detector's shadow state")
	}
	st, err := NewStack(StackConfig{
		SystemPolicy:  browseSystem,
		LocalPolicies: map[string]string{"*": browseLocal},
		DocRoot:       map[string]string{"/index.html": "home"},
		StateDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	defer st.Close()
	h := st.Handler()
	rw := &nullResponse{header: make(http.Header)}
	src := 0
	attack := func(target string) {
		src++
		req := httptest.NewRequest("GET", target, nil)
		req.RemoteAddr = fmt.Sprintf("11.%d.%d.%d:40000", src>>16, src>>8&0xff, src&0xff)
		rw.code = 0
		h.ServeHTTP(rw, req)
		if rw.code != http.StatusForbidden {
			t.Fatalf("attack %d from a fresh source answered %d, want 403", src, rw.code)
		}
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	const sources = 20000
	before := heap()
	for i := 0; i < sources; i++ {
		if i%4 == 3 {
			attack(fmt.Sprintf("/cgi-bin/search?n=%d&q=%s", i, strings.Repeat("A", 1200)))
		} else {
			attack(fmt.Sprintf("/cgi-bin/phf?Qalias=%d", i))
		}
	}
	grew := heap() - before
	t.Logf("(a) %d first-contact attacks: heap +%d B (%d B each)", sources, grew, grew/sources)
	if limit := int64(160*sources + 2<<20); grew > limit {
		t.Errorf("(a) heap grew %d B, want <= %d (160 B per source + 2 MiB)", grew, limit)
	}

	const long = 1100
	before = heap()
	for i := 0; i < long; i++ {
		prefix := fmt.Sprintf("/cgi-bin/phf/%05d/", i)
		attack(prefix + strings.Repeat("A", 16<<10-len(prefix)))
	}
	grew = heap() - before
	t.Logf("(b) %d denials of 16 KiB paths: heap +%.1f MiB", long, float64(grew)/(1<<20))
	if grew > 16<<20 {
		t.Errorf("(b) heap grew %.1f MiB, want <= 16 MiB", float64(grew)/(1<<20))
	}

	if n, kept := st.Mailbox.Count(), len(st.Mailbox.Messages()); n != sources+long || kept != 1024 {
		t.Errorf("(c) mailbox Count = %d, len(Messages()) = %d; want %d and 1024", n, kept, sources+long)
	}
}
