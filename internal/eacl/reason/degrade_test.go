package reason

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
)

// Honest-degradation contract: whenever the cubes cannot cover the
// policy (a condition reads state outside the request, a walk passes
// its budget), universal
// claims downgrade to unknown and positive evidence is withheld.

// ambientGuard is a pre-condition whose truth is a file's, not the
// request's: a digest no file has, of a file that is not there.
const ambientGuard = "pre_cond_file_sha256 local /nonexistent/blob " +
	"0000000000000000000000000000000000000000000000000000000000000000\n"

func TestTruncatedWorldsDegradeProofs(t *testing.T) {
	local := mustEACL(t, "pos_access_right apache GET /a/*\n"+ambientGuard+`
pos_access_right apache GET /b/*
pre_cond_accessid_USER apache *
`)
	e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
	if !e.Truncated() {
		t.Fatal("an ambient condition left the domain complete")
	}
	if got := e.DeadEntries(); got != nil {
		t.Errorf("DeadEntries on an incomplete domain = %v, want nil", got)
	}
	for _, name := range ProofNames {
		res := mustProve(t, e, name)
		if res.Result != Unknown {
			t.Errorf("%s on an incomplete domain = %s, want unknown", name, res.Result)
		}
		if !strings.Contains(res.Reason, "incomplete domain: pre_cond_file_sha256 reads state outside the request") {
			t.Errorf("%s reason = %q", name, res.Reason)
		}
	}
	if res := mustAnswer(t, e, "who-can(apache, *)"); !res.Truncated {
		t.Error("query result does not carry the truncation flag")
	}
}

// TestWalkBudgetDegradesProofs: each group-guarded per-directory local
// cuts every cube it is reached with into members and the rest, so 24
// of them make 2^24 cubes. The walk stops at its budget: New returns
// within seconds, with the domain incomplete and every universal claim
// unknown, while the worlds it did walk still answer and replay: an
// anonymous member of a group is granted.
func TestWalkBudgetDegradesProofs(t *testing.T) {
	var locals []*eacl.EACL
	for g := 0; g < 24; g++ {
		locals = append(locals, mustEACL(t, fmt.Sprintf(
			"pos_access_right apache *\npre_cond_accessid_GROUP local g%d\nneg_access_right apache *\n", g)))
	}
	start := time.Now()
	e := mustEngine(t, nil, locals, Options{})
	elapsed := time.Since(start)
	if why := e.Incomplete(); !strings.Contains(why, "the walk exceeds") {
		t.Fatalf("Incomplete() = %q, want the walk's budget", why)
	}
	if res := mustProve(t, e, "no-dead-entries"); res.Result != Unknown {
		t.Errorf("no-dead-entries past the budget = %s, want unknown", res.Result)
	}
	if res := mustProve(t, e, "no-anonymous-yes"); res.Result != Refuted {
		t.Errorf("no-anonymous-yes past the budget = %s, want refuted by a walked world", res.Result)
	}
	if !costpin.Race && elapsed > 5*time.Second {
		t.Errorf("New took %v past the budget (%d worlds)", elapsed, e.Worlds())
	}
	t.Logf("New: %v over %d worlds", elapsed, e.Worlds())
}

// TestUntoldPieceStaysApart: the string search cannot tell whether a
// request line lies in "*\xfe* re:^[xé]$" (a glob outside UTF-8 beside
// an expression that matches past ASCII), so the first entry's inside
// piece is dropped. The piece left outside it must not stand for the
// whole cube: had it, the second entry's witness "x" would be walked as
// decided by it, while the first entry fires on "x", and the replay
// would disagree. Instead the domain is incomplete and the walk holds
// only what it could tell.
func TestUntoldPieceStaysApart(t *testing.T) {
	local := mustEACL(t, "neg_access_right apache *\npre_cond_regex gnu *\xfe* re:^[xé]$\n"+
		"pos_access_right apache *\npre_cond_regex gnu x*\n")
	e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
	if why := e.Incomplete(); !strings.Contains(why, "a glob outside UTF-8 shares a string search with an expression") {
		t.Fatalf("Incomplete() = %q, want the search's mixed-mode answer", why)
	}
	if res := mustProve(t, e, "no-dead-entries"); res.Result != Unknown {
		t.Errorf("no-dead-entries = %s, want unknown", res.Result)
	}
}

// TestCatchAllListIsDecided: a catch-all pattern leaves no request line
// outside its list, and that is a fact about an empty cell, not a gap:
// entry 2 is maybe-blocked (the malformed expression is MAYBE), so it is
// not dead, and the proof holds.
func TestCatchAllListIsDecided(t *testing.T) {
	local := mustEACL(t, `
neg_access_right apache *
pre_cond_regex gnu *
pre_cond_regex gnu re:[unclosed
pos_access_right apache GET /pub/*
`)
	e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
	if why := e.Incomplete(); why != "" {
		t.Fatalf("catch-all pattern left the domain %q, want complete", why)
	}
	if got := e.DeadEntries(); got != nil {
		t.Errorf("DeadEntries under a maybe-blocking entry = %v, want nil", got)
	}
	if res := mustProve(t, e, "no-dead-entries"); res.Result != Proved {
		t.Errorf("no-dead-entries = %s, want proved", res.Result)
	}
}

func TestInexactWorldMakesAnonymousYesUnknown(t *testing.T) {
	// A grant guarded by a file hash that matches real disk state: the
	// anonymous YES exists but rests on ambient state the model cannot
	// pin, so the proof refuses to call it a refutation.
	path := filepath.Join(t.TempDir(), "blob")
	if err := os.WriteFile(path, []byte("content"), 0o644); err != nil {
		t.Fatal(err)
	}
	digest, err := conditions.HashFile(path)
	if err != nil {
		t.Fatal(err)
	}
	local := mustEACL(t, "pos_access_right apache *\npre_cond_file_sha256 local "+path+" "+digest+"\n")
	e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
	res := mustProve(t, e, "no-anonymous-yes")
	if res.Result != Unknown {
		t.Fatalf("result = %s, want unknown", res.Result)
	}
	if !strings.Contains(res.Reason, "ambient state") {
		t.Errorf("reason = %q", res.Reason)
	}
	// Inexact worlds are never positive evidence.
	if q := mustAnswer(t, e, "who-can(apache, *)"); q.Satisfiable {
		t.Errorf("who-can satisfiable from an inexact world: %+v", q)
	}
}

func TestAnonymousGrantsAccessor(t *testing.T) {
	local := mustEACL(t, "pos_access_right apache GET /pub/*\n")
	e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
	grants := e.AnonymousGrants()
	if len(grants) == 0 {
		t.Fatal("open grant yields no anonymous grants")
	}
	g := grants[0]
	if g.Line != 1 || g.Witness.User != "" || g.Witness.Decision != "yes" {
		t.Errorf("grant = %+v", g)
	}
	if !eacl.MatchRight(eacl.Right{Sign: eacl.Pos, DefAuth: "apache", Value: "GET /pub/*"}, g.Right) {
		t.Errorf("granted right %v not covered by the entry pattern", g.Right)
	}
}

func TestUnresolvedValueRefStaysMaybe(t *testing.T) {
	// An @ref with no runtime value leaves the condition MAYBE, so the
	// grant is never a YES — and never a dead entry either.
	local := mustEACL(t, `
pos_access_right apache *
pre_cond_expr local input_length>@missing
`)
	e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
	if q := mustAnswer(t, e, "who-can(apache, *)"); q.Satisfiable {
		t.Errorf("unresolvable reference produced a YES: %+v", q)
	}
	if got := e.DeadEntries(); got != nil {
		t.Errorf("MAYBE-only entry reported dead: %v", got)
	}
}

func TestExpandModeDisjoins(t *testing.T) {
	sys := mustEACL(t, "eacl_mode expand\nneg_access_right apache GET /admin/*\n")
	loc := mustEACL(t, "pos_access_right apache *\n")
	e := mustEngine(t, []*eacl.EACL{sys}, []*eacl.EACL{loc}, Options{SystemOnly: true})
	// Under expand the local grant overrides the system denial.
	q, err := ParseQuery("who-can(apache, GET /admin/*)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable {
		t.Fatal("expand-mode local grant did not override the system denial")
	}
	if d := mustAnswer(t, e, "grant-differs()"); !d.Satisfiable {
		t.Error("grant-differs unsatisfiable despite the override")
	}
}

func TestQueryAccessors(t *testing.T) {
	who, err := ParseQuery("who-can(apache, GET /x)")
	if err != nil {
		t.Fatal(err)
	}
	if rs := who.ExtraRights(); len(rs) != 1 || rs[0].Value != "GET /x" {
		t.Errorf("ExtraRights = %v", rs)
	}
	if who.NeedsSystemOnly() {
		t.Error("who-can should not need the system-only projection")
	}
	gd, err := ParseQuery("grant-differs()")
	if err != nil {
		t.Fatal(err)
	}
	if len(gd.ExtraRights()) != 0 || !gd.NeedsSystemOnly() {
		t.Error("grant-differs accessors wrong")
	}
}

func TestDescribeWorld(t *testing.T) {
	local := mustEACL(t, "pos_access_right apache *\npre_cond_accessid_GROUP local admins\n")
	e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
	if e.Worlds() == 0 {
		t.Fatal("no worlds")
	}
	s := describeWorld(e.dom, &e.results[0].w)
	if !strings.Contains(s, "right=apache") || !strings.Contains(s, "threat=") {
		t.Errorf("describeWorld = %q", s)
	}
	var anon, member string
	for i := range e.results {
		w := &e.results[i].w
		d := describeWorld(e.dom, w)
		if w.user == "" {
			anon = d
		}
		if len(w.member) > 0 && w.member[0] {
			member = d
		}
	}
	if !strings.Contains(anon, "<anonymous>") {
		t.Errorf("anonymous world renders as %q", anon)
	}
	if !strings.Contains(member, "admins") {
		t.Errorf("member world renders as %q", member)
	}
}
