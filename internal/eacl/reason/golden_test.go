package reason

import (
	"testing"

	"gaaapi/internal/eacl"
)

// Golden query/prove results over the shipped paper policies. Every
// engine construction here also exercises the replay differential: the
// abstract verdict of each world is compared against the decision
// engine's answer.

func shipped(t *testing.T, name string) *eacl.EACL {
	t.Helper()
	e, err := eacl.ParseFile("../../../policies/paper/" + name)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return e
}

func TestGolden71Composition(t *testing.T) {
	sys := shipped(t, "system-7.1.eacl")
	loc := shipped(t, "local-7.1.eacl")
	e := mustEngine(t, []*eacl.EACL{sys}, []*eacl.EACL{loc}, Options{SystemOnly: true})
	if e.Truncated() {
		t.Fatal("7.1 domain truncated; golden expectations assume full coverage")
	}

	if res := mustProve(t, e, "no-anonymous-yes"); res.Result != Proved {
		t.Errorf("no-anonymous-yes = %s (%s), want proved", res.Result, res.Reason)
	}
	if res := mustProve(t, e, "no-dead-entries"); res.Result != Proved {
		t.Errorf("no-dead-entries = %s, dead = %+v, want proved", res.Result, res.DeadEntries)
	}

	// Authentication gates everything above threat low; the lockdown
	// denies everyone at high.
	for query, wantPrincipals := range map[string][]string{
		"who-can(apache, *)":         {"user"},
		"who-can(apache, *, medium)": {"user"},
		"who-can(apache, *, high)":   nil,
		"who-can(apache, *, low)":    nil, // entry inapplicable at low: MAYBE, not YES
	} {
		res := mustAnswer(t, e, query)
		if len(res.Principals) != len(wantPrincipals) {
			t.Errorf("%s principals = %v, want %v", query, res.Principals, wantPrincipals)
			continue
		}
		for i := range wantPrincipals {
			if res.Principals[i] != wantPrincipals[i] {
				t.Errorf("%s principals = %v, want %v", query, res.Principals, wantPrincipals)
			}
		}
	}

	// Pinned witness: the one medium-threat authenticated grant world.
	res := mustAnswer(t, e, "who-can(apache, *, medium)")
	if len(res.Witnesses) != 1 {
		t.Fatalf("witnesses = %+v, want exactly one", res.Witnesses)
	}
	w := res.Witnesses[0]
	if w.User != "user" || w.Threat != "medium" || w.Decision != "yes" || w.Right != "apache " {
		t.Errorf("witness = %+v, want {user user, threat medium, decision yes, right \"apache \"}", w)
	}

	// The local grant is invisible to the system-only projection.
	if res := mustAnswer(t, e, "grant-differs()"); !res.Satisfiable {
		t.Error("grant-differs unsatisfiable, want the medium-threat local grant")
	}
}

func TestGolden72Composition(t *testing.T) {
	sys := shipped(t, "system-7.2.eacl")
	loc := shipped(t, "local-7.2.eacl")

	// Without a seed for @max_input the overflow entry is MAYBE in every
	// world: nothing reaches the trailing allow, so no YES exists at all
	// and both properties hold (the allow entry is maybe-blocked, not
	// dead).
	e := mustEngine(t, []*eacl.EACL{sys}, []*eacl.EACL{loc}, Options{SystemOnly: true})
	if e.Truncated() {
		t.Fatal("7.2 domain truncated; golden expectations assume full coverage")
	}
	if res := mustProve(t, e, "no-anonymous-yes"); res.Result != Proved {
		t.Errorf("unseeded: no-anonymous-yes = %s (%s), want proved", res.Result, res.Reason)
	}
	if res := mustProve(t, e, "no-dead-entries"); res.Result != Proved {
		t.Errorf("unseeded: no-dead-entries = %s, dead = %+v, want proved", res.Result, res.DeadEntries)
	}
	if res := mustAnswer(t, e, "who-can(apache, *)"); res.Satisfiable {
		t.Errorf("unseeded: who-can = %+v, want unsatisfiable", res)
	}

	// Seeding @max_input=1000 (the paper's value) makes the trailing
	// allow reachable — by anonymous clients, since 7.2 never requires
	// authentication. That is the policy's real behaviour, and the
	// prover must surface it as a concrete counterexample.
	seeded := mustEngine(t, []*eacl.EACL{sys}, []*eacl.EACL{loc},
		Options{Values: map[string]string{"max_input": "1000"}})
	res := mustProve(t, seeded, "no-anonymous-yes")
	if res.Result != Refuted {
		t.Fatalf("seeded: no-anonymous-yes = %s (%s), want refuted", res.Result, res.Reason)
	}
	w := res.Witnesses[0]
	if w.User != "" || w.Decision != "yes" {
		t.Errorf("seeded witness = %+v, want an anonymous yes", w)
	}
	// The witness request must dodge every exploit signature and keep
	// input_length within bounds — i.e. be a genuinely clean request.
	if w.RequestURI != "GET /index.html" {
		t.Errorf("seeded witness URI = %q, want the clean URI", w.RequestURI)
	}
	if res := mustProve(t, seeded, "no-dead-entries"); res.Result != Proved {
		t.Errorf("seeded: no-dead-entries = %s, dead = %+v, want proved", res.Result, res.DeadEntries)
	}

	// Every grant dodges the signature entries' conditions: a YES never
	// involves a regex/expr YES (those entries deny).
	for _, q := range []string{"reachable-without(regex)", "reachable-without(expr)"} {
		if res := mustAnswer(t, seeded, q); !res.Satisfiable {
			t.Errorf("seeded: %s unsatisfiable, want the clean-request grant", q)
		}
	}
}

// TestGoldenExamplePolicies pins query results over small inline
// policies whose full world behaviour is enumerable by hand.
func TestGoldenExamplePolicies(t *testing.T) {
	t.Run("group-gate", func(t *testing.T) {
		local := mustEACL(t, "pos_access_right apache GET /admin/*\n"+
			"pre_cond_accessid_GROUP local admins\n"+
			"pos_access_right apache GET /public/*\n")
		e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
		res := mustAnswer(t, e, "who-can(apache, GET /admin/*)")
		if !res.Satisfiable {
			t.Fatal("admin grant unreachable")
		}
		for _, w := range res.Witnesses {
			if len(w.Groups) != 1 || w.Groups[0] != "admins" {
				t.Errorf("admin witness groups = %v, want [admins]", w.Groups)
			}
		}
		res = mustAnswer(t, e, "reachable-without(accessid_GROUP)")
		if !res.Satisfiable {
			t.Fatal("public grant should not need the group")
		}
	})
	t.Run("time-window", func(t *testing.T) {
		local := mustEACL(t, "pos_access_right apache *\n"+
			"pre_cond_time_window local 09:00-17:00\n")
		e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
		res := mustAnswer(t, e, "who-can(apache, *)")
		if !res.Satisfiable {
			t.Fatal("business-hours grant unreachable")
		}
		for _, w := range res.Witnesses {
			if w.Time < "2026-01-05T09:00" || w.Time >= "2026-01-05T17:00" {
				t.Errorf("witness time %s outside the window", w.Time)
			}
		}
	})
	t.Run("location-cidr", func(t *testing.T) {
		local := mustEACL(t, "pos_access_right apache *\n"+
			"pre_cond_location local 10.0.0.0/8\n")
		e := mustEngine(t, nil, []*eacl.EACL{local}, Options{})
		res := mustAnswer(t, e, "who-can(apache, *)")
		if !res.Satisfiable {
			t.Fatal("intranet grant unreachable")
		}
		for _, w := range res.Witnesses {
			if w.ClientIP != "10.0.0.0" {
				t.Errorf("witness IP = %s, want the CIDR network address", w.ClientIP)
			}
		}
	})
}
