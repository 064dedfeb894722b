package workload

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestIPPool(t *testing.T) {
	tests := []struct {
		name   string
		prefix string
		n      int
		want   int
		first  string
		last   string
	}{
		{"three hosts", "198.51.100", 3, 3, "198.51.100.1", "198.51.100.3"},
		{"single host", "10.1.1", 1, 1, "10.1.1.1", "10.1.1.1"},
		{"empty pool", "10.1.1", 0, 0, "", ""},
		{"capped at 254", "203.0.113", 300, 254, "203.0.113.1", "203.0.113.254"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := IPPool(tt.prefix, tt.n)
			if len(got) != tt.want {
				t.Fatalf("len = %d, want %d", len(got), tt.want)
			}
			if tt.want == 0 {
				return
			}
			if got[0] != tt.first || got[len(got)-1] != tt.last {
				t.Errorf("pool spans %s..%s, want %s..%s", got[0], got[len(got)-1], tt.first, tt.last)
			}
			seen := map[string]bool{}
			for _, ip := range got {
				if seen[ip] {
					t.Errorf("duplicate address %s", ip)
				}
				seen[ip] = true
			}
		})
	}
}

func TestAssignSources(t *testing.T) {
	sources := IPPool("198.51.100", 4)
	reqs := AssignSources(Legit(20, 1), sources, 9)

	// Round-robin property: every window of len(sources) consecutive
	// requests covers every source exactly once.
	for start := 0; start+len(sources) <= len(reqs); start += len(sources) {
		seen := map[string]bool{}
		for _, r := range reqs[start : start+len(sources)] {
			seen[r.ClientIP] = true
		}
		if len(seen) != len(sources) {
			t.Fatalf("window at %d covers %d sources, want %d", start, len(seen), len(sources))
		}
	}

	// Deterministic per seed, order varies with seed.
	again := AssignSources(Legit(20, 1), sources, 9)
	if !reflect.DeepEqual(reqs, again) {
		t.Error("same seed must assign identically")
	}
	other := AssignSources(Legit(20, 1), sources, 10)
	if reflect.DeepEqual(reqs, other) {
		t.Error("different seeds should rotate sources differently")
	}

	// No sources: stream unchanged.
	orig := Legit(5, 2)
	if got := AssignSources(append([]Request(nil), orig...), nil, 1); !reflect.DeepEqual(got, orig) {
		t.Error("empty source list must leave requests untouched")
	}
}

func TestLogin(t *testing.T) {
	r := Login("10.0.0.1", "/account/profile.html", "alice", "s3cret")
	want := Request{Method: "GET", Target: "/account/profile.html",
		ClientIP: "10.0.0.1", User: "alice", Pass: "s3cret"}
	if r != want {
		t.Errorf("Login = %+v, want %+v", r, want)
	}
}

func TestCredentialStuffing(t *testing.T) {
	users := []string{"alice", "bob"}
	sources := IPPool("198.51.100", 3)
	reqs := CredentialStuffing("/account/profile.html", users, sources, 4, 7)

	if len(reqs) != len(sources)*4 {
		t.Fatalf("len = %d, want %d", len(reqs), len(sources)*4)
	}
	perSource := map[string]int{}
	passwords := map[string]bool{}
	for _, r := range reqs {
		if r.Attack != "credential-stuffing" || r.Target != "/account/profile.html" {
			t.Fatalf("req = %+v", r)
		}
		if r.User != "alice" && r.User != "bob" {
			t.Fatalf("unknown user %q", r.User)
		}
		if passwords[r.ClientIP+"/"+r.Pass] {
			t.Fatalf("password %q reused from %s", r.Pass, r.ClientIP)
		}
		passwords[r.ClientIP+"/"+r.Pass] = true
		perSource[r.ClientIP]++
	}
	for _, ip := range sources {
		if perSource[ip] != 4 {
			t.Errorf("source %s sent %d attempts, want 4", ip, perSource[ip])
		}
	}

	if !reflect.DeepEqual(reqs, CredentialStuffing("/account/profile.html", users, sources, 4, 7)) {
		t.Error("same seed must give identical streams")
	}
	if reflect.DeepEqual(reqs, CredentialStuffing("/account/profile.html", users, sources, 4, 8)) {
		t.Error("different seeds should differ")
	}
}

func TestLowAndSlow(t *testing.T) {
	sources := IPPool("198.51.100", 5)
	gap := 2 * time.Minute
	reqs := LowAndSlow("/account/vault.html", "alice", sources, 3, gap, 11)

	if len(reqs) != len(sources)*3 {
		t.Fatalf("len = %d, want %d", len(reqs), len(sources)*3)
	}
	if reqs[0].Delay != 0 {
		t.Errorf("first request delayed %v", reqs[0].Delay)
	}
	counts := map[string]int{}
	for i, r := range reqs {
		if r.User != "alice" || r.Attack != "low-and-slow" {
			t.Fatalf("req %d = %+v", i, r)
		}
		if i > 0 && r.Delay != gap {
			t.Fatalf("req %d delay = %v, want %v", i, r.Delay, gap)
		}
		counts[r.ClientIP]++
	}
	// The evasion property: attempts rotate, so each round visits every
	// source once — no source ever sends two in a row.
	for i := 1; i < len(reqs); i++ {
		if reqs[i].ClientIP == reqs[i-1].ClientIP {
			t.Fatalf("source %s sent consecutive attempts at %d", reqs[i].ClientIP, i)
		}
	}
	for _, ip := range sources {
		if counts[ip] != 3 {
			t.Errorf("source %s sent %d, want 3", ip, counts[ip])
		}
	}
	if !reflect.DeepEqual(reqs, LowAndSlow("/account/vault.html", "alice", sources, 3, gap, 11)) {
		t.Error("same seed must give identical streams")
	}
}

func TestScrapeBurst(t *testing.T) {
	paths := []string{"/index.html", "/docs/guide.html", "/docs/api.html"}
	reqs := ScrapeBurst("192.0.2.66", paths, 6, 100*time.Millisecond, 5)

	if len(reqs) != 6 {
		t.Fatalf("len = %d", len(reqs))
	}
	if reqs[0].Delay != 0 {
		t.Errorf("first request delayed %v", reqs[0].Delay)
	}
	// First len(paths) requests cover the real tree exactly once...
	seen := map[string]bool{}
	for _, r := range reqs[:len(paths)] {
		seen[r.Target] = true
	}
	for _, p := range paths {
		if !seen[p] {
			t.Errorf("real path %s never scraped", p)
		}
	}
	// ...then enumerated guesses take over.
	for i := len(paths); i < len(reqs); i++ {
		want := fmt.Sprintf("/page-%d.html", i-len(paths)+1)
		if reqs[i].Target != want {
			t.Errorf("req %d target = %q, want %q", i, reqs[i].Target, want)
		}
	}
	for i, r := range reqs {
		if r.ClientIP != "192.0.2.66" || r.Attack != "scrape" {
			t.Fatalf("req %d = %+v", i, r)
		}
		if i > 0 && r.Delay != 100*time.Millisecond {
			t.Fatalf("req %d delay = %v", i, r.Delay)
		}
	}
	if !reflect.DeepEqual(reqs, ScrapeBurst("192.0.2.66", paths, 6, 100*time.Millisecond, 5)) {
		t.Error("same seed must give identical streams")
	}
}

func TestFlashCrowd(t *testing.T) {
	reqs := FlashCrowd(40, 8, 13)
	if len(reqs) != 40 {
		t.Fatalf("len = %d", len(reqs))
	}
	sources := map[string]bool{}
	for _, r := range reqs {
		if r.Attack != "" {
			t.Fatalf("flash-crowd request labelled %q — would poison false-positive accounting", r.Attack)
		}
		if !strings.HasPrefix(r.ClientIP, "203.0.113.") {
			t.Fatalf("unexpected source %q", r.ClientIP)
		}
		sources[r.ClientIP] = true
	}
	if len(sources) != 8 {
		t.Errorf("crowd spans %d sources, want 8", len(sources))
	}
	if !reflect.DeepEqual(reqs, FlashCrowd(40, 8, 13)) {
		t.Error("same seed must give identical streams")
	}
	if reflect.DeepEqual(reqs, FlashCrowd(40, 8, 14)) {
		t.Error("different seeds should differ")
	}
}

func TestRelabel(t *testing.T) {
	reqs := Relabel(Legit(5, 1), "probe")
	for _, r := range reqs {
		if r.Attack != "probe" {
			t.Errorf("label = %q", r.Attack)
		}
	}
	if got := Relabel(nil, "x"); len(got) != 0 {
		t.Errorf("relabel of empty stream = %v", got)
	}
}
