package reason

import (
	"fmt"
	"strings"
	"testing"

	"gaaapi/internal/actions"
	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
)

func mustEACL(t *testing.T, src string) *eacl.EACL {
	t.Helper()
	e, err := eacl.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return e
}

func mustEngine(t *testing.T, system, local []*eacl.EACL, opts Options) *Engine {
	t.Helper()
	e, err := New(system, local, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func mustProve(t *testing.T, e *Engine, name string) *ProofResult {
	t.Helper()
	res, err := e.Prove(name)
	if err != nil {
		t.Fatalf("Prove(%s): %v", name, err)
	}
	return res
}

func mustAnswer(t *testing.T, e *Engine, query string) *QueryResult {
	t.Helper()
	q, err := ParseQuery(query)
	if err != nil {
		t.Fatalf("ParseQuery(%s): %v", query, err)
	}
	res, err := e.Answer(q)
	if err != nil {
		t.Fatalf("Answer(%s): %v", query, err)
	}
	return res
}

func TestOpenGrantRefutesNoAnonymousYes(t *testing.T) {
	local := mustEACL(t, "pos_access_right apache *\n")
	e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
	res := mustProve(t, e, "no-anonymous-yes")
	if res.Result != Refuted {
		t.Fatalf("result = %s, want refuted", res.Result)
	}
	if len(res.Witnesses) == 0 {
		t.Fatal("refutation carries no witness")
	}
	if w := res.Witnesses[0]; w.User != "" || w.Decision != "yes" {
		t.Errorf("witness = %+v, want anonymous yes", w)
	}
}

func TestUserRequirementProvesNoAnonymousYes(t *testing.T) {
	local := mustEACL(t, "pos_access_right apache *\npre_cond_accessid_USER apache *\n")
	e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
	if res := mustProve(t, e, "no-anonymous-yes"); res.Result != Proved {
		t.Fatalf("result = %s (%s), want proved", res.Result, res.Reason)
	}
	who := mustAnswer(t, e, "who-can(apache, *)")
	if !who.Satisfiable || len(who.Principals) != 1 || who.Principals[0] != "user" {
		t.Errorf("who-can = %+v, want principals [user]", who)
	}
}

func TestWhoCanThreatPin(t *testing.T) {
	// Paper 7.1 local shape: authentication required above threat low.
	local := mustEACL(t, "pos_access_right apache *\n"+
		"pre_cond_system_threat_level local >low\n"+
		"pre_cond_accessid_USER apache *\n")
	e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
	if res := mustAnswer(t, e, "who-can(apache, *, low)"); res.Satisfiable {
		t.Errorf("low: satisfiable with principals %v, want none (entry inapplicable)", res.Principals)
	}
	res := mustAnswer(t, e, "who-can(apache, *, medium)")
	if !res.Satisfiable || len(res.Principals) != 1 || res.Principals[0] != "user" {
		t.Errorf("medium: %+v, want principals [user]", res)
	}
}

func TestDeadEntryDetected(t *testing.T) {
	local := mustEACL(t, "pos_access_right apache *\npos_access_right apache GET /x\n")
	e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
	dead := e.DeadEntries()
	if len(dead) != 1 || dead[0].Line != 2 {
		t.Fatalf("DeadEntries = %+v, want the line-2 entry", dead)
	}
	if res := mustProve(t, e, "no-dead-entries"); res.Result != Refuted {
		t.Errorf("no-dead-entries = %s, want refuted", res.Result)
	}
}

// TestDeadEntriesBesideAddressGlob: an entry inside two disjoint blocks
// never fires, and one at an address glob after a catch-all is
// shadowed, so no-dead-entries is refuted with both, the address axis
// decided exactly.
func TestDeadEntriesBesideAddressGlob(t *testing.T) {
	sys := mustEACL(t, "neg_access_right apache GET /a*\npre_cond_location local 192.168.0.0/16\npre_cond_location local 10.0.0.0/8\n"+
		"neg_access_right * *\nneg_access_right apache *\npre_cond_location local 10.1.*\n")
	res := mustProve(t, mustEngine(t, []*eacl.EACL{sys}, nil, Options{SystemOnly: true}), "no-dead-entries")
	var lines []int
	for _, d := range res.DeadEntries {
		lines = append(lines, d.Line)
	}
	if res.Result != Refuted || fmt.Sprint(lines) != "[1 5]" {
		t.Errorf("no-dead-entries = %s %q, dead lines %v; want refuted, lines [1 5]", res.Result, res.Reason, lines)
	}
}

// TestDeadEntryCauses pins each cause with its witness: the shadowing
// entries, or the structure that keeps the entry from ever deciding.
func TestDeadEntryCauses(t *testing.T) {
	dead := func(system, local []*eacl.EACL) []DeadEntry {
		t.Helper()
		return mustEngine(t, system, local, Options{}).DeadEntries()
	}
	// One unconditional shadow, and a verbatim duplicate.
	got := dead(nil, []*eacl.EACL{mustEACL(t, "pos_access_right apache GET /cgi-bin/*\n"+
		"neg_access_right apache GET /cgi-bin/phf\npre_cond_regex gnu *phf*\n"+
		"pos_access_right apache GET /cgi-bin/*\n")})
	if len(got) != 2 || got[0].Cause != CauseShadowed || fmt.Sprint(got[0].ShadowedBy) != "[0]" ||
		got[1].Line != 4 || fmt.Sprint(got[1].ShadowedBy) != "[0]" {
		t.Errorf("shadowed: %+v", got)
	}
	// Two entries partitioning the threat scale shadow the third jointly.
	got = dead(nil, []*eacl.EACL{mustEACL(t, "pos_access_right apache *\n"+
		"pre_cond_system_threat_level local <=medium\npos_access_right apache *\n"+
		"pre_cond_system_threat_level local >medium\npos_access_right apache *\n")})
	if len(got) != 1 || got[0].Line != 5 || fmt.Sprint(got[0].ShadowedBy) != "[0 1]" {
		t.Errorf("jointly shadowed: %+v", got)
	}
	// A guard no threat level satisfies.
	got = dead(nil, []*eacl.EACL{mustEACL(t, "pos_access_right apache GET /x\n"+
		"neg_access_right apache *\npre_cond_system_threat_level local <low\n")})
	if len(got) != 1 || got[0].Cause != CauseUnsatisfiable || got[0].ShadowedBy != nil {
		t.Errorf("unsatisfiable: %+v", got)
	}
	// Two halves of a block shadow a grant to the block; one half
	// leaves the other half's first address to it.
	halves := "neg_access_right apache *\npre_cond_location local 10.0.0.0/9 10.128.0.0/9\n"
	got = dead(nil, []*eacl.EACL{mustEACL(t, halves+"pos_access_right apache *\npre_cond_location local 10.0.0.0/8\n")})
	if len(got) != 1 || got[0].Line != 3 || fmt.Sprint(got[0].ShadowedBy) != "[0]" {
		t.Errorf("shadowed by blocks: %+v", got)
	}
	half := mustEngine(t, nil, []*eacl.EACL{mustEACL(t, strings.Replace(halves, " 10.128.0.0/9", "", 1)+
		"pos_access_right apache *\npre_cond_location local 10.0.0.0/8\n")}, Options{})
	if got := half.DeadEntries(); got != nil {
		t.Errorf("half a block: %+v", got)
	}
	if res := mustAnswer(t, half, "who-can(apache, *)"); !strings.Contains(fmt.Sprint(res), "10.128.0.0") {
		t.Errorf("who-can = %+v, want a grant at 10.128.0.0", res)
	}
	// An IPv6 glob beside its block cuts four address cubes, each with
	// a witness: 2001:db8:: (in both), its block's last address (in the
	// block only), 2001:db8::~ (in the glob only), and one outside both.
	v6 := mustEngine(t, nil, []*eacl.EACL{mustEACL(t, "neg_access_right apache *\n"+
		"pre_cond_location local 2001:db8::*\npre_cond_location local 2001:db8::/32\npos_access_right apache *\n")}, Options{})
	if why := v6.Incomplete(); why != "" || v6.DeadEntries() != nil {
		t.Errorf("IPv6 glob and block: %q, %+v; want complete, no dead entry", why, v6.DeadEntries())
	}
	// A local EACL under a system that splits the space without stop:
	// the local's fates are its own, beside the system's, whose BadGuys
	// deny and grant to everyone else jointly shadow its last entry.
	sys := mustEACL(t, "neg_access_right * *\npre_cond_accessid_GROUP local BadGuys\n"+
		"pos_access_right * *\nneg_access_right apache GET /x\n")
	loc := mustEACL(t, "pos_access_right apache GET /*\npre_cond_system_threat_level local <high\n"+
		"neg_access_right apache *\npos_access_right apache GET /x\npre_cond_system_threat_level local =low\n")
	sys.Source, loc.Source = "system", "local"
	got = dead([]*eacl.EACL{sys}, []*eacl.EACL{loc})
	if len(got) != 2 || got[0].Source != "system" || got[0].Line != 4 || got[0].Cause != CauseShadowed ||
		fmt.Sprint(got[0].ShadowedBy) != "[0 1]" || got[1].Source != "local" || got[1].Line != 4 ||
		got[1].Cause != CauseShadowed || fmt.Sprint(got[1].ShadowedBy) != "[0]" {
		t.Errorf("composed: %+v", got)
	}
	// Every local entry under stop, even on a domain that does not
	// cover the policy.
	got = mustEngine(t, []*eacl.EACL{mustEACL(t, "eacl_mode stop\nneg_access_right * *\n")},
		[]*eacl.EACL{mustEACL(t, "pos_access_right apache *\n"+ambientGuard+"pos_access_right sshd *\n")},
		Options{}).DeadEntries()
	if len(got) != 2 || got[0].Cause != CauseStop || got[1].Cause != CauseStop {
		t.Errorf("stop: %+v", got)
	}
}

// TestOpenWitnessReachesOverlappedEntry: "GET /a*" is not covered by
// "GET /a", and the world requesting its open witness "GET /a~" is the
// one the neg entry decides.
func TestOpenWitnessReachesOverlappedEntry(t *testing.T) {
	e := mustEngine(t, nil, []*eacl.EACL{mustEACL(t,
		"pos_access_right apache GET /a\nneg_access_right apache GET /a*\n")}, Options{})
	if dead := e.DeadEntries(); len(dead) != 0 {
		t.Fatalf("DeadEntries = %+v, want none", dead)
	}
	for i := range e.results {
		r := &e.results[i]
		if len(r.deciders) == 1 && r.deciders[0].entry == 1 {
			if r.w.right.Value != "GET /a~" || r.composed.Decision.String() != "no" {
				t.Errorf("entry 2 decides %s with %s, want the open witness denied", r.w.right.Value, r.composed.Decision)
			}
			return
		}
	}
	t.Fatal("no world reaches entry 2")
}

// TestOpenWitnessOnEveryGlobAxis: an exact pattern above its starred
// extension leaves the later entry live on the user, host and
// request-line axes too ("ab", "10.0.1", "GET /ab" reach it). Both
// entries deny, so the first one's NO only blocks it.
func TestOpenWitnessOnEveryGlobAxis(t *testing.T) {
	for _, cond := range []string{
		"pre_cond_accessid_USER apache a",
		"pre_cond_accessid_HOST local 10.0",
		"pre_cond_location local 10.0",
		"pre_cond_regex gnu GET /a",
	} {
		src := "neg_access_right apache *\n" + cond + "\nneg_access_right apache *\n" + cond + "*\n"
		e := mustEngine(t, nil, []*eacl.EACL{mustEACL(t, src)}, Options{})
		if dead := e.DeadEntries(); len(dead) != 0 {
			t.Errorf("DeadEntries = %+v, want none for\n%s", dead, src)
		}
	}
}

// TestRegexExprIsDecided: an "re:" guard is a language like a glob
// list. Shadowed only where another request-line list matches, the
// entry is live ("b" reaches it); under an unconditional entry, it is
// dead, shadowed by that entry.
func TestRegexExprIsDecided(t *testing.T) {
	e := mustEngine(t, nil, []*eacl.EACL{mustEACL(t,
		"neg_access_right apache *\npre_cond_regex gnu *ab*\nneg_access_right apache *\npre_cond_regex gnu re:b\n")}, Options{})
	if dead := e.DeadEntries(); len(dead) != 0 {
		t.Errorf("DeadEntries = %+v, want none", dead)
	}
	e = mustEngine(t, nil, []*eacl.EACL{mustEACL(t,
		"neg_access_right apache *\nneg_access_right apache *\npre_cond_regex gnu re:b\n")}, Options{})
	if dead := e.DeadEntries(); len(dead) != 1 || dead[0].Line != 2 || fmt.Sprint(dead[0].ShadowedBy) != "[0]" {
		t.Errorf("DeadEntries = %+v, want line 2 shadowed by entry 0", dead)
	}
}

// TestVetoAndBypassFacts reads the composition facts E020 and W021
// present, with the denials and the witness.
func TestVetoAndBypassFacts(t *testing.T) {
	sys := mustEACL(t, "eacl_mode narrow\nneg_access_right * *\npre_cond_system_threat_level local =high\n")
	loc := mustEACL(t, "pos_access_right apache *\npre_cond_system_threat_level local =high\n"+
		"pos_access_right apache *\n")
	vetoed := mustEngine(t, []*eacl.EACL{sys}, []*eacl.EACL{loc}, Options{}).VetoedGrants()
	if len(vetoed) != 1 || vetoed[0].Grant.Line != 1 || len(vetoed[0].Denials) != 1 || vetoed[0].Denials[0].Line != 2 {
		t.Errorf("VetoedGrants = %+v, want the =high grant vetoed by line 2", vetoed)
	}
	expand := mustEACL(t, "eacl_mode expand\nneg_access_right * *\npre_cond_system_threat_level local =high\n")
	e := mustEngine(t, []*eacl.EACL{expand}, []*eacl.EACL{loc}, Options{})
	if got := e.VetoedGrants(); len(got) != 0 {
		t.Errorf("VetoedGrants under expand = %+v, want none", got)
	}
	// Only the =high grant fires where the denial does; the open grant
	// below it decides only at the lower levels.
	by := e.Bypasses()
	if len(by) != 1 || by[0].Grant.Line != 1 || len(by[0].Denials) != 1 || by[0].Denials[0].Line != 2 {
		t.Errorf("Bypasses = %+v, want the =high grant overriding the denial", by)
	}
}

func TestMaybeAboveSuppressesDeadEntry(t *testing.T) {
	// Entry 1 hangs on an unresolved runtime value (MAYBE in every
	// world): with the value resolved the scan could continue, so entry
	// 2 must not be called dead.
	local := mustEACL(t, "pos_access_right apache *\n"+
		"pre_cond_expr local input_length>@max_input\n"+
		"pos_access_right apache *\n")
	e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
	if dead := e.DeadEntries(); len(dead) != 0 {
		t.Fatalf("DeadEntries = %+v, want none (maybe-blocked)", dead)
	}
	if res := mustProve(t, e, "no-dead-entries"); res.Result != Proved {
		t.Errorf("no-dead-entries = %s, want proved", res.Result)
	}
}

func TestMaybeAboveShadowsWhatTheScanPastItCannotReach(t *testing.T) {
	// A POST matching *phf* with no input_length stops at entry 1 with
	// MAYBE; past it, entry 2 grants every POST. So where entry 1 hangs,
	// the scan continued past it still never reaches entry 3: it is
	// dead, shadowed by entries 1 and 2 together.
	local := mustEACL(t, "pos_access_right apache *phf*\n"+
		"pre_cond_expr local input_length<10\n"+
		"pos_access_right apache *\n"+
		"neg_access_right apache POST *\n")
	e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
	dead := e.DeadEntries()
	if len(dead) != 1 || dead[0].Line != 4 || dead[0].Cause != CauseShadowed || fmt.Sprint(dead[0].ShadowedBy) != "[0 1]" {
		t.Fatalf("DeadEntries = %+v, want line 4 shadowed by entries [0 1]", dead)
	}
	if res := mustProve(t, e, "no-dead-entries"); res.Result != Refuted {
		t.Errorf("no-dead-entries = %s, want refuted", res.Result)
	}
}

func TestRegexReSuppressesDeadEntry(t *testing.T) {
	local := mustEACL(t, "neg_access_right apache *\n"+
		"pre_cond_regex gnu re:^/private/[0-9]+$\n"+
		"pos_access_right apache *\n")
	e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
	for _, d := range e.DeadEntries() {
		if d.Line == 1 {
			t.Errorf("re:-guarded entry reported dead: %+v", d)
		}
	}
}

func TestReachableWithout(t *testing.T) {
	local := mustEACL(t, "pos_access_right apache *\n"+
		"pre_cond_system_threat_level local >low\n"+
		"pre_cond_accessid_USER apache *\n"+
		"pos_access_right apache GET /pub*\n")
	e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
	res := mustAnswer(t, e, "reachable-without(accessid_USER)")
	if !res.Satisfiable {
		t.Fatal("want a YES not involving accessid_USER (the /pub entry)")
	}
	if w := res.Witnesses[0]; !strings.HasPrefix(w.Right, "apache GET /pub") {
		t.Errorf("witness right = %q, want the /pub entry's", w.Right)
	}
	// Authentication-only policy: every YES involves accessid_USER.
	only := mustEngine(t, nil, []*eacl.EACL{mustEACL(t,
		"pos_access_right apache *\npre_cond_accessid_USER apache *\n")}, Options{})
	if res := mustAnswer(t, only, "reachable-without(accessid_USER)"); res.Satisfiable {
		t.Errorf("satisfiable with witnesses %+v, want none", res.Witnesses)
	}
}

func TestGrantDiffers(t *testing.T) {
	system := mustEACL(t, "eacl_mode narrow\n"+
		"neg_access_right * *\n"+
		"pre_cond_system_threat_level local =high\n")
	local := mustEACL(t, "pos_access_right apache *\n")
	e := mustEngine(t, []*eacl.EACL{system}, []*eacl.EACL{local}, Options{SystemOnly: true})
	res := mustAnswer(t, e, "grant-differs()")
	if !res.Satisfiable {
		t.Fatal("local grant must differ from the system-only projection somewhere")
	}
	w := res.Witnesses[0]
	if w.Decision == w.SystemOnly {
		t.Errorf("witness decisions equal: %+v", w)
	}

	noProj := mustEngine(t, []*eacl.EACL{system}, []*eacl.EACL{local}, Options{})
	q, _ := ParseQuery("grant-differs()")
	if _, err := noProj.Answer(q); err == nil {
		t.Error("grant-differs without Options.SystemOnly: want error")
	}
}

func TestChallengedDenialSurvivesComposition(t *testing.T) {
	// Anonymous at threat medium under the 7.1 local shape: the USER
	// requirement denies with a Basic challenge, and the specification's
	// fold must carry it exactly as the engine does (replay enforces this;
	// the assertion documents it).
	local := mustEACL(t, "pos_access_right apache *\n"+
		"pre_cond_accessid_USER apache *\n")
	e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
	found := false
	for i := range e.results {
		r := &e.results[i]
		if r.w.user == "" && r.composed.Decision.String() == "no" {
			found = true
			if !strings.HasPrefix(r.composed.Challenge, "Basic realm=") {
				t.Errorf("anonymous denial challenge = %q, want Basic realm", r.composed.Challenge)
			}
		}
	}
	if !found {
		t.Fatal("no anonymous denial world found")
	}
}

func TestParseQueryErrors(t *testing.T) {
	for _, bad := range []string{
		"", "who-can", "who-can(apache)", "who-can(a, b, c, d)",
		"who-can(a, b, scary)", "reachable-without()", "grant-differs(x)",
		"frobnicate(a)",
	} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q): want error", bad)
		}
	}
	q, err := ParseQuery("  who-can( apache , GET /cgi-bin/* , high )  ")
	if err != nil {
		t.Fatalf("whitespace form: %v", err)
	}
	if q.Right.Value != "GET /cgi-bin/*" || !q.HasThreat {
		t.Errorf("parsed %+v", q)
	}
}

func TestUnknownProofName(t *testing.T) {
	e := mustEngine(t, nil, []*eacl.EACL{mustEACL(t, "pos_access_right apache *\n")}, Options{})
	if _, err := e.Prove("no-such-property"); err == nil {
		t.Error("want error for unknown property")
	}
}

// TestUnsatisfiable pins the per-entry query: which regions are empty,
// which are not, and what it leaves unknown rather than guess.
func TestUnsatisfiable(t *testing.T) {
	tests := []struct {
		name, guard string
		unsat       bool
		unknown     string // a substring of the unknown reason
	}{
		{"disjoint CIDRs", "pre_cond_location local 10.0.0.0/8\npre_cond_location local 192.168.0.0/16", true, ""},
		{"nested CIDRs", "pre_cond_location local 10.0.0.0/8\npre_cond_location local 10.1.0.0/16", false, ""},
		// A missing parameter makes both comparisons MAYBE on every
		// request alike; no present value satisfies both.
		{"disjoint bounds", "pre_cond_expr local input_length>1000\npre_cond_expr local input_length<10", true, ""},
		{"overlapping bounds", "pre_cond_expr local input_length>10\npre_cond_expr local input_length<1000", false, ""},
		{"disjoint windows", "pre_cond_time_window local 09:00-12:00\npre_cond_time_window local 13:00-17:00", true, ""},
		// The windows meet only on Wednesday at 10:00, an instant
		// neither window's own boundaries name.
		{"windows meeting on a shared day", "pre_cond_time_window local 09:00-17:00 Wed\npre_cond_time_window local 10:00-12:00 Mon-Fri", false, ""},
		{"threat levels", "pre_cond_system_threat_level local =high\npre_cond_system_threat_level local =low", true, ""},
		{"seven users", "pre_cond_accessid_USER apache a b c d e f g", false, ""},
		// No expression takes part, so the user axis is searched in
		// bytes: the user "\xffroot" fires the entry.
		{"user outside UTF-8", "pre_cond_accessid_USER apache \xffroot", false, ""},
		// Unregistered conditions and '@' references are MAYBE: the
		// entry decides, so it is not unsatisfiable.
		{"unregistered", "pre_cond_phase_of_moon local full", false, ""},
		{"regex expression", "pre_cond_regex gnu re:^POST\\s", false, ""},
		{"two glob lists", "pre_cond_regex gnu *cgi*\npre_cond_regex gnu *phf*", false, ""},
		{"glob and CIDR", "pre_cond_location local 10.1.*\npre_cond_location local 10.0.0.0/8", false, ""},
		{"disjoint expressions", "pre_cond_regex gnu re:^GET\npre_cond_regex gnu re:^POST", true, ""},
		{"disjoint globs", "pre_cond_regex gnu GET*\npre_cond_regex gnu POST*", true, ""},
		// A client address is judged as the location condition judges
		// it, by net.ParseIP: 2001:db8::1 is in both lists.
		{"IPv6 glob and CIDR", "pre_cond_location local 2001:db8::*\npre_cond_location local 2001:db8::/32", false, ""},
		{"disjoint IPv6 CIDRs", "pre_cond_location local 2001:db8::/32\npre_cond_location local 2001:db9::/32", true, ""},
		{"host name inside a CIDR", "pre_cond_accessid_HOST local *.example.org\npre_cond_location local 10.0.0.0/8", true, ""},
		{"IPv4 and IPv6 CIDRs", "pre_cond_location local 10.0.0.0/8\npre_cond_location local 2001:db8::/32", true, ""},
		{"CIDR inside a union of CIDRs", "pre_cond_location local 10.0.0.0/8\npre_cond_location local 10.0.0.0/9 10.128.0.0/9", false, ""},
		// A CIDR is the language of the strings net.ParseIP places in its
		// block: no string of 10.1.* is one of 192.168.0.0/16.
		{"glob outside a CIDR", "pre_cond_location local 10.1.*\npre_cond_location local 192.168.0.0/16", true, ""},
		// Contains folds an IPv4-mapped address onto IPv4, so a mapped
		// block is an IPv4 block: 192.0.2.7 lies in both.
		{"IPv4 block inside an IPv4-mapped block", "pre_cond_location local ::ffff:0:0/96\npre_cond_location local 192.0.2.7/32", false, ""},
		{"IPv4-mapped glob inside an IPv4 block", "pre_cond_location local ::ffff:10.*\npre_cond_location local 10.0.0.0/8", false, ""},
		{"IPv4-mapped glob outside an IPv4 block", "pre_cond_location local ::ffff:10.*\npre_cond_location local 192.168.0.0/16", true, ""},
		// The "::" stands for group 2 alone, or for more groups that are 0.
		{"compressed glob inside a /64", "pre_cond_location local 2001:db8::*\npre_cond_location local 2001:db8:0:1::/64", false, ""},
		{"compressed glob outside a /64", "pre_cond_location local 2001:db8::*\npre_cond_location local 2001:db8:1::/64", true, ""},
		// 0.0.0.0/0 holds every IPv4 address, ::/0 every other address.
		{"/0 blocks of both families", "pre_cond_location local 0.0.0.0/0\npre_cond_location local ::/0", true, ""},
		{"/128 block in either case", "pre_cond_location local 2001:db8::1/128\npre_cond_location local 2001:DB8:*", false, ""},
		// ::0.0.0.1 is ::1.
		{"/128 block with a dotted tail", "pre_cond_location local ::1/128\npre_cond_location local *.*", false, ""},
		{"/128 block outside a glob", "pre_cond_location local ::1/128\npre_cond_location local 1*", true, ""},
		{"ambient", strings.TrimSuffix(ambientGuard, "\n"), false, "reads state outside the request"},
		{"expression past the search's budget", "pre_cond_regex gnu re:^[ab]*a[ab]{16}$", false, "state budget"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := mustEACL(t, "neg_access_right apache *\n"+tt.guard+"\n")
			core, unknown := mustEngine(t, nil, []*eacl.EACL{e}, Options{}).Unsatisfiable(e.Entries[0])
			if (core != nil) != tt.unsat || !strings.Contains(unknown, tt.unknown) || (tt.unknown == "") != (unknown == "") {
				t.Errorf("Unsatisfiable = %v, %q; want unsatisfiable %v, %q", core, unknown, tt.unsat, tt.unknown)
			}
		})
	}
	// A shadowed entry decides nowhere, yet alone it fires: shadowed, not
	// unsatisfiable.
	eng := mustEngine(t, nil, []*eacl.EACL{mustEACL(t, "pos_access_right apache *\nneg_access_right apache GET /x\n")}, Options{})
	if dead := eng.DeadEntries(); len(dead) != 1 || dead[0].Index != 1 || dead[0].Cause != CauseShadowed || fmt.Sprint(dead[0].ShadowedBy) != "[0]" {
		t.Errorf("DeadEntries = %+v; want the second entry shadowed by the first", dead)
	}
	// The core is the first type that cannot hold alone: the CIDRs, not
	// the window beside them.
	e := mustEACL(t, "neg_access_right apache *\npre_cond_time_window local 09:00-17:00\n"+
		"pre_cond_location local 10.0.0.0/8\npre_cond_location local 192.168.0.0/16\n")
	if core, _ := eng.Unsatisfiable(e.Entries[0]); len(core) != 2 || core[0].Line != 3 || core[1].Line != 4 {
		t.Errorf("core = %+v, want the two location conditions", core)
	}
}

// TestVocabularyIsTheBuiltins: the vocabulary the reasoner and eaclint
// evaluate against is every built-in condition and action name under
// any authority, and the paper's regex under "gnu" — nothing else.
func TestVocabularyIsTheBuiltins(t *testing.T) {
	api := gaa.New()
	RegisterVocabulary(api, conditions.Deps{})
	for _, name := range append(conditions.Names(), actions.Names()...) {
		if !api.Known(name, "local") {
			t.Errorf("%s is not known", name)
		}
	}
	if !api.Known("regex", "gnu") {
		t.Error(`regex is not known under "gnu"`)
	}
	for _, name := range []string{"bogus", "accessid_user", ""} {
		for _, auth := range []string{"local", "gnu"} {
			if api.Known(name, auth) {
				t.Errorf("%q is known under %q", name, auth)
			}
		}
	}
}
