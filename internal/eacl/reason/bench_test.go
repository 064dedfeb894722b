package reason

import (
	"testing"
	"time"

	"gaaapi/internal/eacl"
)

// seededOpts is the largest shipped workload: the section 7.2
// composition with max_input resolved, whose walk cuts every threat
// level by the BadGuys bit, the authority, the signature list and the
// input length's absence and two intervals (30 worlds).
var seededOpts = Options{Values: map[string]string{"max_input": "1000"}, SystemOnly: true}

func shipped72(tb testing.TB) (sys, loc *eacl.EACL) {
	tb.Helper()
	for _, p := range []struct {
		path string
		dst  **eacl.EACL
	}{
		{"../../../policies/paper/system-7.2.eacl", &sys},
		{"../../../policies/paper/local-7.2.eacl", &loc},
	} {
		e, err := eacl.ParseFile(p.path)
		if err != nil {
			tb.Fatal(err)
		}
		*p.dst = e
	}
	return sys, loc
}

// TestProverRuntimeBudget pins end-to-end engine construction — the
// walks, real-evaluator witnesses, first-match scan, fold and the
// double replay of every world — under one second on the largest shipped
// composition, so a policy-reload gate could run it inline.
func TestProverRuntimeBudget(t *testing.T) {
	sys, loc := shipped72(t)
	start := time.Now()
	e, err := New([]*eacl.EACL{sys}, []*eacl.EACL{loc}, seededOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ProofNames {
		if _, err := e.Prove(name); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("prover took %v on the 7.2 composition (%d worlds), budget 1s", elapsed, e.Worlds())
	}
}

func BenchmarkProver72(b *testing.B) {
	sys, loc := shipped72(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := New([]*eacl.EACL{sys}, []*eacl.EACL{loc}, seededOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range ProofNames {
			if _, err := e.Prove(name); err != nil {
				b.Fatal(err)
			}
		}
	}
}
