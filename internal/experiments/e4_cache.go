package experiments

import (
	"fmt"
	"io"
	"time"

	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/gaahttp"
	"gaaapi/internal/groups"
	"gaaapi/internal/httpd"
	"gaaapi/internal/ids"
	"gaaapi/internal/workload"
	"gaaapi/policies/paper"
)

// parsingSource retrieves and translates the policy text on every
// lookup — the uncached behaviour of the paper's section 6 step 2a,
// where gaa_get_object_policy_info "reads the system-wide policy file,
// converts it to the internal EACL representation" per request. The
// composed-policy cache (WithPolicyCache) sits exactly in front of
// this cost.
type parsingSource struct {
	text string
}

func (p *parsingSource) Policies(string) ([]*eacl.EACL, error) {
	e, err := eacl.ParseString(p.text)
	if err != nil {
		return nil, err
	}
	return []*eacl.EACL{e}, nil
}

func (p *parsingSource) Revision(string) (string, error) {
	return "static", nil
}

// E4 measures the paper's section 9 future-work optimization —
// "caching of the retrieved and translated policies for later reuse by
// subsequent requests" — by timing the access-control hook over the
// legitimate mix with the composed-policy cache off and on, against
// policy sources that re-translate on every retrieval (the paper's
// deployment shape: policies live in files).
func E4(w io.Writer, opts Options) error {
	opts = opts.Defaults()

	run := func(cache bool) (Stats, uint64, uint64, error) {
		var apiOpts []gaa.Option
		if cache {
			apiOpts = append(apiOpts, gaa.WithPolicyCache(64))
		}
		values := gaa.NewValues()
		for name, v := range paperValues() {
			values.Set(name, v)
		}
		api := gaa.New(append(apiOpts, gaa.WithValues(values))...)
		conditions.Register(api, conditions.Deps{
			Threat: ids.NewManager(ids.Low),
			Groups: groups.NewStore(),
		})
		guard := gaahttp.New(gaahttp.Config{
			API:    api,
			System: []gaa.PolicySource{&parsingSource{text: paper.System71}},
			Local:  []gaa.PolicySource{&parsingSource{text: paper.Without(paper.Local72, "notify")}},
		})

		reqs := workload.Legit(200, opts.Seed)
		recs := make([]*httpd.RequestRec, len(reqs))
		for i, r := range reqs {
			recs[i] = httpd.NewRequestRec(r.HTTPRequest(), nil, time.Now())
		}
		stats := Measure(opts.Trials, func() {
			for _, rec := range recs {
				guard.Check(rec)
			}
		})
		cs := api.CacheStats()
		return stats, cs.Hits, cs.Misses, nil
	}

	off, _, _, err := run(false)
	if err != nil {
		return err
	}
	on, hits, misses, err := run(true)
	if err != nil {
		return err
	}

	tbl := Table{
		Title:  "E4: policy caching (paper section 9 future work)",
		Header: []string{"configuration", "200-request batch", "per request (µs)", "cache hits/misses"},
		Notes: []string{
			fmt.Sprintf("%d trials; policy sources re-translate per retrieval (file-backed shape)", opts.Trials),
			fmt.Sprintf("speedup with cache: %.2fx", float64(off.Mean)/float64(on.Mean)),
		},
	}
	perReq := func(s Stats) string {
		return fmt.Sprintf("%.1f", float64(s.Mean)/200/float64(time.Microsecond))
	}
	tbl.AddRow("cache off", off.String(), perReq(off), "-")
	tbl.AddRow("cache on", on.String(), perReq(on), fmt.Sprintf("%d/%d", hits, misses))
	tbl.Fprint(w)
	return nil
}
