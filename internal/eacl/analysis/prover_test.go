package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/conditions"
	"gaaapi/internal/costpin"
	"gaaapi/internal/eacl"
	"gaaapi/internal/eacl/reason"
)

// The dead-entry, veto and bypass codes present the reasoning engine's
// facts. Each test below that changed a finding against the pattern
// rules these codes replaced carries the prover's witness for it.

// deadCodes are the codes a dead entry is reported under, once.
var deadCodes = map[string]bool{"E011": true, "E012": true, "E013": true,
	"W002": true, "W003": true, "W007": true, "W020": true, "W022": true}

func TestOpenWitness(t *testing.T) {
	// "GET /a*" overlaps "GET /a" without being covered by it: the open
	// witness "GET /a~" reaches the neg entry, so it is not dead (the
	// plain witness "GET /a" alone made it look shadowed).
	src := "pos_access_right apache GET /a\nneg_access_right apache GET /a*\n"
	for _, d := range analyze(t, src) {
		if deadCodes[d.Code] {
			t.Errorf("dead-entry finding on a live entry: %v", d)
		}
	}
	eng, err := reason.New(nil, []*eacl.EACL{mustParse(t, src)}, reason.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := eng.Prove("no-dead-entries"); err != nil || res.Result != reason.Proved {
		t.Errorf("no-dead-entries = %+v, %v; want proved", res, err)
	}

	// A narrow system denial of "GET /a" leaves the local "GET /a*" grant
	// live on every other right: no E020, and the prover's witness is a
	// granted "GET /a~".
	c := composeOf(t,
		[]string{"eacl_mode narrow\nneg_access_right apache GET /a"},
		[]string{"pos_access_right apache GET /a*"})
	if ds := New().AnalyzeComposition(c); hasCode(ds, "E020") {
		t.Errorf("E020 on a grant the denial does not cover: %v", ds)
	}
	eng, err = reason.New(c.System, c.Local, reason.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := mustAnswer(t, eng, "who-can(apache, GET /a*)")
	if !res.Satisfiable || res.Witnesses[0].Right != "apache GET /a~" {
		t.Errorf("who-can = %+v, want a grant witnessed by the open right \"apache GET /a~\"", res)
	}
}

func mustAnswer(t *testing.T, eng *reason.Engine, query string) *reason.QueryResult {
	t.Helper()
	q, err := reason.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sprawlSystemPolicy is a 200-entry signature database: one deny per
// exploit prefix at raised threat levels, then a group deny. Every
// sigN* with N >= 10 is shadowed by the sig<first digit>* entry.
func sprawlSystemPolicy() string {
	var b strings.Builder
	b.WriteString("eacl_mode narrow\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "neg_access_right apache GET /cgi-bin/sig%d*\npre_cond_system_threat_level local >low\n", i)
	}
	b.WriteString("neg_access_right * *\npre_cond_accessid_GROUP local BadGuys\n")
	return b.String()
}

func TestProverCoversSignatureDatabase(t *testing.T) {
	f := &File{EACL: mustParse(t, sprawlSystemPolicy()), Known: lintKnown()}
	eng, err := reason.New(nil, []*eacl.EACL{f.EACL}, reason.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Truncated() || len(eng.DeadEntries()) != 190 {
		t.Fatalf("engine over %d worlds: %q, %d dead entries; want complete and 190",
			eng.Worlds(), eng.Incomplete(), len(eng.DeadEntries()))
	}
	ds := New().AnalyzeFile(f)
	want := map[int]int{} // dead line -> shadowing line
	for n := 10; n < 200; n++ {
		first := int(fmt.Sprint(n)[0] - '0')
		want[2+2*n] = 2 + 2*first
	}
	seen := map[int]bool{}
	for _, d := range ds {
		shadow, ok := want[d.Line]
		if d.Code != "W007" || !ok || seen[d.Line] {
			t.Errorf("unexpected finding %v", d)
			continue
		}
		seen[d.Line] = true
		if msg := fmt.Sprintf("subsumed by entry at line %d: its right covers", shadow); !strings.HasPrefix(d.Message, msg) {
			t.Errorf("line %d: message %q, want prefix %q", d.Line, d.Message, msg)
		}
	}
	if len(seen) != 190 {
		t.Errorf("%d entries reported, want the 190 prefix-shadowed signatures", len(seen))
	}
}

// TestUnknownStaysUnknown: where a condition reads state outside the
// request the universal claims (dead entries, E020) are silent and one
// line-0 W022 says why; W020 is structural and W021 existential, so
// both are still reported.
func TestUnknownStaysUnknown(t *testing.T) {
	// A file the hash check matches: the entries fire, on ambient state.
	path := filepath.Join(t.TempDir(), "blob")
	if err := os.WriteFile(path, []byte("content"), 0o644); err != nil {
		t.Fatal(err)
	}
	digest, err := conditions.HashFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pinned := "pre_cond_file_sha256 local " + path + " " + digest + "\n"
	ds := analyze(t, "pos_access_right apache *\n"+pinned+"pos_access_right apache *\n"+pinned)
	if got := codes(ds); len(got) != 1 || got[0] != "W022" || ds[0].Line != 0 ||
		!strings.Contains(ds[0].Message, "dead-entry analysis unknown: incomplete domain: pre_cond_file_sha256 reads state outside the request") {
		t.Errorf("findings = %v, want only the line-0 unknown note", ds)
	}

	local := "pos_access_right apache GET /a\n" + pinned + "pos_access_right apache *\n"
	c := composeOf(t, []string{"eacl_mode narrow\nneg_access_right * *"}, []string{local})
	ds = New().AnalyzeComposition(c)
	if got := codes(ds); len(got) != 1 || got[0] != "W022" || ds[0].File != "system0.eacl" || ds[0].Line != 0 {
		t.Errorf("narrow: findings = %v, want the unknown note in place of E020", ds)
	}
	c = composeOf(t, []string{"eacl_mode expand\nneg_access_right * *"}, []string{local})
	if ds = New().AnalyzeComposition(c); !hasCode(ds, "W021") || !hasCode(ds, "W022") {
		t.Errorf("expand: findings = %v, want W021 beside the unknown note", ds)
	}
	c = composeOf(t, []string{"eacl_mode stop\nneg_access_right * *"}, []string{local})
	if ds = New().AnalyzeComposition(c); !hasCode(ds, "W020") {
		t.Errorf("stop: findings = %v, want W020", ds)
	}
}

// sprawlLocalPolicy is one of the 64 per-directory policies of the
// benchmark's sprawl deployment: the shared signature and overflow
// denies, a directory-specific deny, and the grant.
func sprawlLocalPolicy(dir int) string {
	return fmt.Sprintf(`neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *///////////////////* *%%c0%%af* *%%255c* *cmd.exe* *root.exe*
rr_cond_update_log local on:failure/BadGuys/info:IP
neg_access_right apache *
pre_cond_expr local input_length>1000
neg_access_right apache GET /d%02d/private*
pre_cond_system_threat_level local >low
pos_access_right apache *
`, dir)
}

// TestProverCoversSprawlComposition: the 200-entry signature database
// composed with 64 per-directory locals is walked whole, in under a
// second, and the 190 prefix-shadowed signatures are its dead entries.
func TestProverCoversSprawlComposition(t *testing.T) {
	sys := mustParse(t, sprawlSystemPolicy())
	var locals []*eacl.EACL
	for d := 0; d < 64; d++ {
		locals = append(locals, mustParse(t, sprawlLocalPolicy(d)))
	}
	start := time.Now()
	eng, err := reason.New([]*eacl.EACL{sys}, locals, reason.Options{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if why := eng.Incomplete(); why != "" {
		t.Fatalf("Incomplete() = %q, want complete", why)
	}
	res, err := eng.Prove("no-dead-entries")
	if err != nil {
		t.Fatal(err)
	}
	dead := map[int]bool{}
	for _, d := range res.DeadEntries {
		if d.Source != sys.Source || d.Cause != reason.CauseShadowed {
			t.Errorf("unexpected dead entry %+v", d)
		}
		dead[d.Line] = true
	}
	for n := 10; n < 200; n++ {
		if !dead[2+2*n] {
			t.Errorf("signature %d (line %d) not reported dead", n, 2+2*n)
		}
	}
	if res.Result != reason.Refuted || len(res.DeadEntries) != 190 {
		t.Errorf("no-dead-entries = %s with %d dead entries, want refuted by the 190 shadowed signatures", res.Result, len(res.DeadEntries))
	}
	if !costpin.Race && elapsed > time.Second {
		t.Errorf("reason.New took %v over %d worlds, budget 1s", elapsed, eng.Worlds())
	}
	t.Logf("reason.New: %v over %d worlds", elapsed, eng.Worlds())
}

// BenchmarkReloadAnalysis times what a reload of the sprawl deployment
// analyzes, in its three parts: the 200-entry system list alone, the 64
// locals one by one, and their composition.
func BenchmarkReloadAnalysis(b *testing.B) {
	sys := mustParse(b, sprawlSystemPolicy())
	sys.Source = "system.eacl"
	var locals []*eacl.EACL
	for d := 0; d < 64; d++ {
		e := mustParse(b, sprawlLocalPolicy(d))
		e.Source = fmt.Sprintf("d%02d.eacl", d)
		locals = append(locals, e)
	}
	known := lintKnown()
	b.Run("system", func(b *testing.B) {
		for range b.N {
			New().AnalyzeFile(&File{EACL: sys, Known: known})
		}
	})
	b.Run("locals", func(b *testing.B) {
		for range b.N {
			for _, e := range locals {
				New().AnalyzeFile(&File{EACL: e, Known: known})
			}
		}
	})
	b.Run("composition", func(b *testing.B) {
		for range b.N {
			New().AnalyzeComposition(NewComposition([]*eacl.EACL{sys}, locals))
		}
	})
}

// TestVetoNamesEveryDenial: two system denials that between them
// decide wherever the grant fires make one E020 naming both.
func TestVetoNamesEveryDenial(t *testing.T) {
	c := composeOf(t,
		[]string{"eacl_mode narrow\nneg_access_right * *\npre_cond_system_threat_level local =high\n" +
			"neg_access_right * *\npre_cond_system_threat_level local <high"},
		[]string{"pos_access_right apache *"})
	ds := New().AnalyzeComposition(c)
	if len(ds) != 1 || ds[0].Code != "E020" ||
		!strings.Contains(ds[0].Message, "denial system0.eacl:2 or system0.eacl:4 covers") {
		t.Errorf("findings = %v, want one E020 naming both denials", ds)
	}
}

// TestBypassNeedsAWorld: a local grant whose guard excludes every world
// the system denial fires in cannot override it, so no W021 — the
// pattern rule reported any overlapping pair.
func TestBypassNeedsAWorld(t *testing.T) {
	c := composeOf(t,
		[]string{"eacl_mode expand\nneg_access_right * *\npre_cond_system_threat_level local =high"},
		[]string{"pos_access_right apache *\npre_cond_system_threat_level local <high"})
	if ds := New().AnalyzeComposition(c); hasCode(ds, "W021") {
		t.Errorf("W021 without a bypassing world: %v", ds)
	}
}
