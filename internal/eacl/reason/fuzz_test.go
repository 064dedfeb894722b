package reason

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
)

// FuzzReasonVsEvaluator feeds random policy text through the prover.
// Engine construction IS the differential: every world's verdict, the
// specification's scan (gaa's spec.go) over the world's entry models, is
// replayed through the compiled engine, and New fails on any
// disagreement. The fuzzer's job is to find a policy shape on which the
// specification and the compiled engine part. Every world is then
// scanned and replayed again in a fresh environment of its own
// (replayFresh), which catches state the engine's shared environment
// leaks from one world into the next. The walk has no cap: at most
// eight entries bound it, and a seed with a file hash holds the one
// incompleteness left, ambient state.
func FuzzReasonVsEvaluator(f *testing.F) {
	f.Add("pos_access_right apache *\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2000 {
			return
		}
		pol, err := eacl.ParseString(src)
		if err != nil {
			return
		}
		if len(pol.Entries) > 8 {
			return
		}
		opts := Options{SystemOnly: true, Values: map[string]string{"max_input": "1000"}}

		// Local-only and composed-with-itself both exercise the fold.
		for _, arr := range [][2][]*eacl.EACL{
			{nil, {pol}},
			{{pol}, {pol}},
		} {
			e, err := New(arr[0], arr[1], opts)
			if err != nil {
				t.Fatalf("specification/engine disagreement on policy:\n%s\n%v", src, err)
			}
			replayFresh(t, e)
			// Queries and proofs must never panic, whatever the policy.
			for _, q := range []string{
				"who-can(apache, *)", "who-can(*, *, high)",
				"reachable-without(accessid_USER)", "grant-differs()",
			} {
				pq, err := ParseQuery(q)
				if err != nil {
					t.Fatalf("ParseQuery(%s): %v", q, err)
				}
				if _, err := e.Answer(pq); err != nil && !strings.Contains(err.Error(), "system-only") {
					t.Fatalf("Answer(%s): %v", q, err)
				}
			}
			for _, p := range ProofNames {
				if _, err := e.Prove(p); err != nil {
					t.Fatalf("Prove(%s): %v", p, err)
				}
			}
			// The fate walks and the composition walk agree: a dead entry
			// decides in no world, and only earlier entries shadow it. A
			// policy composed with itself shares its source, so an entry
			// is known by source and index; a local one under stop is
			// never scanned.
			for _, d := range e.DeadEntries() {
				for wi, ds := range e.walked {
					for n, i := range ds {
						if i == d.Index && e.eacls[n].Source == d.Source && d.Cause != CauseStop {
							t.Fatalf("dead entry %+v decides world %s", d, describeWorld(e.dom, &e.worlds[wi]))
						}
					}
				}
				if slices.ContainsFunc(d.ShadowedBy, func(j int) bool { return j >= d.Index }) {
					t.Fatalf("dead entry %+v is shadowed by a later one", d)
				}
			}
			e.VetoedGrants()
			e.Bypasses()
		}
	})
}

// freshEnv is the reference for the engine's shared environment: one
// world realized from nothing — a frozen clock, an IDS manager pinned at
// the world's threat level, a group store holding exactly the world's
// memberships — with no state that any other world could have left.
func freshEnv(d *domain, w *world) (*gaa.API, *gaa.Request) {
	mgr := ids.NewManager(w.threat)
	store := groups.NewStore()
	key := w.user
	if key == "" {
		key = w.ip
	}
	for gi, g := range d.groups {
		if w.member[gi] {
			store.Add(g, key)
		}
	}
	at := w.at
	api := gaa.New(gaa.WithClock(func() time.Time { return at }), gaa.WithValues(d.values))
	RegisterVocabulary(api, conditions.Deps{Threat: mgr, Groups: store})
	return api, d.request(w)
}

// replayFresh scans and replays every exact world of e in a fresh
// environment and requires what the engine recorded in its shared one:
// the deciding entries and the verdicts.
func replayFresh(t *testing.T, e *Engine) {
	t.Helper()
	ctx := context.Background()
	for i := range e.results {
		r := &e.results[i]
		if r.inexact {
			continue
		}
		api, req := freshEnv(e.dom, &r.w)
		var sysOnly Verdict
		ans, decided := api.SpecCheck(ctx, e.policy, req, nil, &sysOnly)
		var deciders []entryRef
		for n, d := range decided {
			if d >= 0 {
				deciders = append(deciders, entryRef{eacl: int32(n), entry: int32(d)})
			}
		}
		recorded := slices.Clone(r.deciders)
		for j := range recorded {
			recorded[j].kind = 0
		}
		if !slices.Equal(deciders, recorded) || verdict(&ans) != r.composed {
			t.Fatalf("world %s: deciders %v, verdict %+v in a fresh environment; %v, %+v in the shared one",
				describeWorld(e.dom, &r.w), deciders, verdict(&ans), recorded, r.composed)
		}
		check := func(p *gaa.Policy, want Verdict, label string) {
			ans, err := api.CheckAuthorization(ctx, p, req)
			if err != nil {
				t.Fatalf("%s replay of world %s: %v", label, describeWorld(e.dom, &r.w), err)
			}
			if got := verdict(ans); got != want {
				t.Fatalf("%s: world %s reads %+v in a fresh environment, %+v in the shared one",
					label, describeWorld(e.dom, &r.w), got, want)
			}
		}
		check(e.policy, r.composed, "composed")
		if e.opts.SystemOnly {
			check(e.sysPolicy, r.sysOnly, "system-only")
		}
	}
}

// TestSharedEnvMatchesFreshEnv holds the shipped compositions, and a
// policy whose worlds add and drop group memberships keyed by user and
// by address, to the fresh-environment reference.
func TestSharedEnvMatchesFreshEnv(t *testing.T) {
	sys72, loc72 := shipped72(t)
	groupsPolicy := mustEACL(t, "neg_access_right * *\npre_cond_accessid_GROUP local BadGuys\n"+
		"pos_access_right apache GET /admin/*\npre_cond_accessid_GROUP local admins\npre_cond_accessid_USER apache *\n"+
		"pos_access_right apache *\npre_cond_location local 10.0.0.0/8\n")
	for name, c := range map[string][2][]*eacl.EACL{
		"7.1":    {{shipped(t, "system-7.1.eacl")}, {shipped(t, "local-7.1.eacl")}},
		"7.2":    {{sys72}, {loc72}},
		"groups": {nil, {groupsPolicy}},
	} {
		t.Run(name, func(t *testing.T) {
			replayFresh(t, mustEngine(t, c[0], c[1], seededOpts))
		})
	}
}
