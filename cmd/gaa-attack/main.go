// Command gaa-attack replays the experiment workloads against a
// running gaa-httpd (or any HTTP server) and summarizes the outcomes —
// the traffic-generator half of the paper's section 7 deployments.
//
// Usage:
//
//	gaa-attack -target http://localhost:8080 -mix attacks
//	gaa-attack -target http://localhost:8080 -mix legit -n 100
//	gaa-attack -target http://localhost:8080 -mix all
//
// Campaign mode runs the declarative attack campaigns of
// internal/scenario — phased narratives with turn-by-turn checkpoints —
// against an in-process stack (default), a live server (-live), or a
// recorded trace (-replay). Any checkpoint failure exits non-zero. A
// -live target must serve the campaign's own policy stack (campaigns
// declare their policies; the default gaa-httpd deployment is not it),
// and state checkpoints are skipped there — see docs/SCENARIOS.md.
//
//	gaa-attack -list
//	gaa-attack -campaign credential-stuffing
//	gaa-attack -campaign all -record testdata/scenario/records
//	gaa-attack -campaign all -replay testdata/scenario/records -json
//	gaa-attack -campaign threat-ladder -live -target http://localhost:8080
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gaaapi/internal/scenario"
	"gaaapi/internal/scenario/replay"
	"gaaapi/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gaa-attack:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gaa-attack", flag.ContinueOnError)
	var (
		target  = fs.String("target", "http://localhost:8080", "base URL of the server under test")
		mix     = fs.String("mix", "all", "workload: legit | attacks | all")
		n       = fs.Int("n", 50, "number of legitimate requests")
		seed    = fs.Int64("seed", 2003, "workload seed")
		timeout = fs.Duration("timeout", 5*time.Second, "per-request timeout")
		conc    = fs.Int("c", 1, "concurrent client workers")

		campaign  = fs.String("campaign", "", "run a named attack campaign, or 'all' (see -list)")
		list      = fs.Bool("list", false, "list the available campaigns and exit")
		record    = fs.String("record", "", "record campaign traces into this directory")
		replayDir = fs.String("replay", "", "replay campaign traces from this directory (zero live traffic)")
		live      = fs.Bool("live", false, "drive the campaign against -target over real HTTP instead of in-process")
		jsonOut   = fs.Bool("json", false, "emit canonical JSON reports instead of the human summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		listCampaigns(out)
		return nil
	}
	if *campaign != "" {
		return runCampaigns(out, campaignOpts{
			selector:  *campaign,
			seed:      *seed,
			record:    *record,
			replayDir: *replayDir,
			live:      *live,
			target:    *target,
			jsonOut:   *jsonOut,
		})
	}

	var reqs []workload.Request
	switch *mix {
	case "legit":
		reqs = workload.Legit(*n, *seed)
	case "attacks":
		reqs = workload.AttackMix()
	case "all":
		reqs = workload.Interleave(*seed, workload.Legit(*n, *seed), workload.AttackMix())
	default:
		return fmt.Errorf("unknown mix %q", *mix)
	}

	client := &http.Client{
		Timeout: *timeout,
		// Redirects are an outcome (adaptive redirection), not a hop.
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}

	type key struct {
		attack string
		code   int
	}
	var (
		mu     sync.Mutex
		counts = make(map[key]int)
		errors int
	)
	if *conc < 1 {
		*conc = 1
	}
	work := make(chan workload.Request)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tgt := &scenario.LiveTarget{BaseURL: *target, Client: client}
			for r := range work {
				x, err := tgt.Do(r)
				mu.Lock()
				if err != nil {
					errors++
				} else {
					counts[key{x.Class, x.Status}]++
				}
				mu.Unlock()
			}
		}()
	}
	for _, r := range reqs {
		work <- r
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].attack != keys[j].attack {
			return keys[i].attack < keys[j].attack
		}
		return keys[i].code < keys[j].code
	})
	fmt.Fprintf(out, "%-16s %-6s %s\n", "class", "status", "count")
	for _, k := range keys {
		fmt.Fprintf(out, "%-16s %-6d %d\n", k.attack, k.code, counts[k])
	}
	if errors > 0 {
		fmt.Fprintf(out, "transport errors: %d\n", errors)
	}
	fmt.Fprintf(out, "%d requests in %v (%.0f req/s, %d workers)\n",
		len(reqs), elapsed.Round(time.Millisecond), float64(len(reqs))/elapsed.Seconds(), *conc)
	return nil
}

type campaignOpts struct {
	selector  string
	seed      int64
	record    string
	replayDir string
	live      bool
	target    string
	jsonOut   bool
}

func listCampaigns(out io.Writer) {
	for _, c := range scenario.All() {
		fmt.Fprintf(out, "%-22s %s (%d phases)\n", c.Name, c.Title, len(c.Phases))
		for _, ph := range c.Phases {
			fmt.Fprintf(out, "    %-18s %s\n", ph.Name, ph.Comment)
		}
	}
}

// campaignJSON is the -json envelope: the effective seed is always in
// the output, machine-readable, alongside every report.
type campaignJSON struct {
	Seed    int64              `json:"seed"`
	Passed  bool               `json:"passed"`
	Reports []*scenario.Report `json:"reports"`
}

func runCampaigns(out io.Writer, opts campaignOpts) error {
	var campaigns []scenario.Campaign
	if opts.selector == "all" {
		campaigns = scenario.All()
	} else {
		c, err := scenario.Find(opts.selector)
		if err != nil {
			return err
		}
		campaigns = []scenario.Campaign{c}
	}
	if opts.replayDir != "" && (opts.live || opts.record != "") {
		return fmt.Errorf("-replay cannot be combined with -live or -record")
	}

	result := campaignJSON{Seed: opts.seed, Passed: true}
	for _, c := range campaigns {
		rep, err := runOneCampaign(c, opts)
		if err != nil {
			return fmt.Errorf("campaign %s: %w", c.Name, err)
		}
		if !rep.Passed {
			result.Passed = false
		}
		result.Reports = append(result.Reports, rep)
	}

	if opts.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(result); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "seed: %d\n", opts.seed)
		for _, rep := range result.Reports {
			rep.Summarize(out)
		}
	}
	if !result.Passed {
		failures := 0
		for _, rep := range result.Reports {
			failures += len(rep.Failures)
		}
		return fmt.Errorf("%d checkpoint failure(s) (seed %d)", failures, opts.seed)
	}
	return nil
}

func runOneCampaign(c scenario.Campaign, opts campaignOpts) (*scenario.Report, error) {
	seed := opts.seed

	var tgt scenario.Target
	var rp *replay.Replayer
	var rec *replay.Recorder
	switch {
	case opts.replayDir != "":
		var err error
		rp, err = replay.Load(filepath.Join(opts.replayDir, c.Name+".trace"))
		if err != nil {
			return nil, err
		}
		// The trace's seed is authoritative: the request stream must be
		// regenerated exactly as recorded.
		seed = rp.Header().Seed
		tgt = rp
	case opts.live:
		tgt = &scenario.LiveTarget{BaseURL: opts.target}
	default:
		st, err := scenario.NewClusterTarget(c.Stack, 1)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		tgt = st
	}
	if opts.record != "" {
		rec = replay.NewRecorder(tgt, c.Name, seed)
		tgt = rec
	}

	rep, err := scenario.Run(c, tgt, scenario.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	if rp != nil {
		if err := rp.Done(); err != nil {
			return nil, err
		}
	}
	if rec != nil {
		if err := rec.Save(filepath.Join(opts.record, c.Name+".trace")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
