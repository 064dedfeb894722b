package analysis

import (
	"fmt"
	"strings"
	"testing"

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
	eng, err := reason.New(nil, []*eacl.EACL{f.EACL}, reason.Options{MaxWorlds: proverMaxWorlds})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Truncated() || len(eng.DeadEntries()) != 190 {
		t.Fatalf("engine over %d worlds: %q, %d dead entries; want the whole grid and 190",
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

// TestUnknownStaysUnknown: past a domain cap the universal claims (dead
// entries, E020) are silent and one line-0 W022 says why; W020 is
// structural and W021 existential, so both are still reported.
func TestUnknownStaysUnknown(t *testing.T) {
	// Seven user names exceed the user axis's cap.
	users := "pre_cond_accessid_USER apache a b c d e f g\n"
	ds := analyze(t, "pos_access_right apache *\n"+users+"pos_access_right apache *\n"+users)
	if got := codes(ds); len(got) != 1 || got[0] != "W022" || ds[0].Line != 0 ||
		!strings.Contains(ds[0].Message, "dead-entry analysis unknown: incomplete domain: 7 user candidates exceed the cap of 5") {
		t.Errorf("findings = %v, want only the line-0 unknown note", ds)
	}

	c := composeOf(t,
		[]string{"eacl_mode narrow\nneg_access_right * *"},
		[]string{"pos_access_right apache *\n" + users})
	ds = New().AnalyzeComposition(c)
	if got := codes(ds); len(got) != 1 || got[0] != "W022" || ds[0].File != "system0.eacl" || ds[0].Line != 0 {
		t.Errorf("narrow: findings = %v, want the unknown note in place of E020", ds)
	}
	c = composeOf(t,
		[]string{"eacl_mode expand\nneg_access_right * *"},
		[]string{"pos_access_right apache *\n" + users})
	if ds = New().AnalyzeComposition(c); !hasCode(ds, "W021") || !hasCode(ds, "W022") {
		t.Errorf("expand: findings = %v, want W021 beside the unknown note", ds)
	}
	c = composeOf(t,
		[]string{"eacl_mode stop\nneg_access_right * *"},
		[]string{"pos_access_right apache *\n" + users})
	if ds = New().AnalyzeComposition(c); !hasCode(ds, "W020") {
		t.Errorf("stop: findings = %v, want W020", ds)
	}
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
