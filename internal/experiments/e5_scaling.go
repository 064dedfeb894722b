package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
)

// E5 measures how CheckAuthorization scales with policy size: the
// number of EACL entries scanned (the request matches only the last
// entry, the worst case for the ordered scan) and the number of
// pre-conditions per entry. The expected shape is linear in both.
func E5(w io.Writer, opts Options) error {
	opts = opts.Defaults()

	api := gaa.New()
	conditions.Register(api, conditions.Deps{
		Threat: ids.NewManager(ids.Low),
		Groups: groups.NewStore(),
	})

	// syntheticPolicy builds `entries` neg entries followed by one pos
	// entry. Each neg entry carries `conds` pre-conditions: the first
	// conds-1 always match (so every condition is evaluated) and the
	// last never does (so the entry falls through) — the worst case for
	// the ordered scan.
	syntheticPolicy := func(entries, conds int) *gaa.Policy {
		var b strings.Builder
		for i := 0; i < entries; i++ {
			fmt.Fprintf(&b, "neg_access_right apache *\n")
			for c := 0; c < conds-1; c++ {
				fmt.Fprintf(&b, "pre_cond_regex gnu *\n")
			}
			fmt.Fprintf(&b, "pre_cond_regex gnu *no-match-%d*\n", i)
		}
		b.WriteString("pos_access_right apache *\n")
		e, err := eacl.ParseString(b.String())
		if err != nil {
			panic(err) // generator bug, impossible on valid input
		}
		return gaa.NewPolicy("/x", nil, []*eacl.EACL{e})
	}

	req := gaa.NewRequest("apache", "GET /index.html",
		gaa.Param{Type: gaa.ParamRequestURI, Authority: gaa.AuthorityAny, Value: "GET /index.html"})

	const perBatch = 100
	measure := func(p *gaa.Policy) Stats {
		return Measure(opts.Trials, func() {
			for i := 0; i < perBatch; i++ {
				if _, err := api.CheckAuthorization(context.Background(), p, req); err != nil {
					panic(err)
				}
			}
		})
	}
	perCall := func(s Stats) string {
		return fmt.Sprintf("%.2f", float64(s.Mean)/perBatch/float64(time.Microsecond))
	}

	tbl := Table{
		Title:  "E5a: evaluation latency vs number of entries (1 condition each)",
		Header: []string{"entries scanned", "per call (µs)"},
		Notes:  []string{fmt.Sprintf("%d trials of %d-call batches; worst case: only the last entry matches", opts.Trials, perBatch)},
	}
	for _, n := range []int{1, 4, 16, 64, 256} {
		tbl.AddRow(fmt.Sprintf("%d", n), perCall(measure(syntheticPolicy(n, 1))))
	}
	tbl.Fprint(w)

	tbl2 := Table{
		Title:  "E5b: evaluation latency vs conditions per entry (16 entries)",
		Header: []string{"conditions per entry", "per call (µs)"},
	}
	for _, c := range []int{1, 2, 4, 8} {
		tbl2.AddRow(fmt.Sprintf("%d", c), perCall(measure(syntheticPolicy(16, c))))
	}
	tbl2.Fprint(w)
	return nil
}
