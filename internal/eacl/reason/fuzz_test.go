package reason

import (
	"strings"
	"testing"

	"gaaapi/internal/eacl"
)

// FuzzReasonVsEvaluator feeds random policy text through the prover.
// Engine construction IS the differential: every world's abstract
// verdict is replayed through the decision engine, and New fails on
// any disagreement. The fuzzer's job is to find a policy shape whose
// abstract model drifts from the real scan/compose semantics.
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
		opts := Options{MaxWorlds: 400, SystemOnly: true,
			Values: map[string]string{"max_input": "1000"}}

		// Local-only and composed-with-itself both exercise the fold.
		for _, arr := range [][2][]*eacl.EACL{
			{nil, {pol}},
			{{pol}, {pol}},
		} {
			e, err := New(arr[0], arr[1], opts)
			if err != nil {
				t.Fatalf("abstract/concrete disagreement on policy:\n%s\n%v", src, err)
			}
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
		}
	})
}
