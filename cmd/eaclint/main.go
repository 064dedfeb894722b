// Command eaclint is the policy tool the paper lists as future work in
// section 2: "an automated tool to ensure policy correctness and
// consistency and to ease the policy specification burden on the
// policy officer". It drives the static-analysis engine in
// internal/eacl/analysis: value-level semantic validation, structural
// checks (grammar, unregistered conditions, conflicting entries), and
// the reasoning engine's facts per file and across the composition
// (contradictions, i.e. unsatisfiable entries, and dead entries by
// cause, vetoed and bypassing grants), with plain-text, JSON and SARIF
// 2.1.0 output. It also pretty-prints the canonical form and explains
// how a hypothetical request would evaluate.
//
// Usage:
//
//	eaclint policy.eacl                   # analyze against the built-in registry
//	eaclint -config gaa.conf policy.eacl  # analyze against a GAA configuration file
//	eaclint -system sys.eacl -local loc.eacl  # composition analysis across levels
//	eaclint -json policy.eacl             # machine-readable findings
//	eaclint -sarif policy.eacl            # SARIF 2.1.0 for code scanning
//	eaclint -rules W003,-W007 policy.eacl # select / disable rules by code or name
//	eaclint -severity error policy.eacl   # drop warnings
//	eaclint -fmt policy.eacl              # print canonical form
//	eaclint -explain "GET /cgi-bin/phf" -param request_uri="GET /cgi-bin/phf" policy.eacl
//	eaclint -hash /etc/passwd             # sha256 for post_cond_file_sha256
//
// The whole-policy reasoning engine (internal/eacl/reason) answers
// global reachability questions with concrete witness requests, each
// replayed through the engine:
//
//	eaclint -query 'who-can(apache, GET /cgi-bin/*, high)' policy.eacl
//	eaclint -prove no-anonymous-yes -system sys.eacl -local loc.eacl
//	eaclint -prove no-dead-entries -value max_input=1000 policy.eacl
//
// With -system/-local the queries run over the composed policy set;
// otherwise each positional file is analyzed as a stand-alone local
// policy. Query and proof results are always JSON.
//
// Exit codes are vet-style: 0 when no error-severity findings were
// reported and every requested proof was discharged, 1 when at least
// one file failed to parse, an error finding fired, or a proof came
// back refuted or unknown, 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gaaapi/internal/conditions"
	gaaconfig "gaaapi/internal/config"
	"gaaapi/internal/eacl"
	"gaaapi/internal/eacl/analysis"
	"gaaapi/internal/eacl/reason"
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eaclint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (p *multiFlag) String() string { return strings.Join(*p, ",") }
func (p *multiFlag) Set(s string) error {
	*p = append(*p, s)
	return nil
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("eaclint", flag.ContinueOnError)
	var (
		format   = fs.Bool("fmt", false, "print the canonical form instead of analyzing")
		jsonOut  = fs.Bool("json", false, "emit findings as a JSON report")
		sarifOut = fs.Bool("sarif", false, "emit findings as SARIF 2.1.0 (for code scanning upload)")
		explain  = fs.String("explain", "", "evaluate the right \"<METHOD> <path>\" and print the trace")
		hash     = fs.String("hash", "", "print the sha256 of a file (for post_cond_file_sha256)")
		cfgPath  = fs.String("config", "", "GAA configuration file declaring the registered routines (default: all built-ins)")
		rules    = fs.String("rules", "", "comma-separated rule codes or names to run; prefix with '-' to disable (e.g. W003,-subsumed-entry)")
		severity = fs.String("severity", "", "minimum severity to report: warning (default) or error")
		params   multiFlag
		systems  multiFlag
		locals   multiFlag
		queries  multiFlag
		proves   multiFlag
		values   multiFlag
	)
	fs.Var(&params, "param", "request parameter type=value for -explain (repeatable)")
	fs.Var(&systems, "system", "system-level EACL file for composition analysis (repeatable)")
	fs.Var(&locals, "local", "local-level EACL file for composition analysis (repeatable)")
	fs.Var(&queries, "query", "reasoning query, e.g. 'who-can(apache, GET /*, high)' (repeatable)")
	fs.Var(&proves, "prove", "property to prove: no-anonymous-yes or no-dead-entries (repeatable)")
	fs.Var(&values, "value", "runtime value name=value resolving '@name' references during reasoning (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	if *hash != "" {
		digest, err := conditions.HashFile(*hash)
		if err != nil {
			return 2, err
		}
		fmt.Fprintf(out, "%s  %s\n", digest, *hash)
		return 0, nil
	}

	var opts []analysis.Option
	if *rules != "" {
		opt, err := analysis.WithRuleFilter(*rules)
		if err != nil {
			return 2, err
		}
		opts = append(opts, opt)
	}
	if *severity != "" {
		sev, err := analysis.ParseSeverity(*severity)
		if err != nil {
			return 2, err
		}
		opts = append(opts, analysis.WithMinSeverity(sev))
	}
	analyzer := analysis.New(opts...)

	if fs.NArg() == 0 && len(systems) == 0 && len(locals) == 0 {
		return 2, fmt.Errorf("no policy files given")
	}

	// The registration vocabulary the findings are checked against:
	// every built-in by default, or exactly what a GAA configuration
	// file declares (paper section 6 step 1).
	api := gaa.New()
	if *cfgPath != "" {
		cfg, err := gaaconfig.ParseFile(*cfgPath)
		if err != nil {
			return 2, err
		}
		deps := gaaconfig.Deps{}
		deps.Conditions.Threat = ids.NewManager(ids.Low)
		deps.Conditions.Groups = groups.NewStore()
		if err := cfg.Apply(api, deps); err != nil {
			return 2, err
		}
	} else {
		reason.RegisterVocabulary(api, conditions.Deps{
			Threat: ids.NewManager(ids.Low),
			Groups: groups.NewStore(),
		})
	}

	// Parse every file up front: positional files are analyzed in
	// isolation; -system/-local files are analyzed in isolation AND as a
	// composed policy set.
	exit := 0
	type parsed struct {
		path string
		e    *eacl.EACL
	}
	var files, positional []parsed
	var sysEACLs, locEACLs []*eacl.EACL
	load := func(path string) *eacl.EACL {
		e, err := eacl.ParseFile(path)
		if err != nil {
			fmt.Fprintf(out, "%v\n", err)
			exit = 1
			return nil
		}
		files = append(files, parsed{path, e})
		return e
	}
	for _, path := range fs.Args() {
		if e := load(path); e != nil {
			positional = append(positional, parsed{path, e})
		}
	}
	for _, path := range systems {
		if e := load(path); e != nil {
			sysEACLs = append(sysEACLs, e)
		}
	}
	for _, path := range locals {
		if e := load(path); e != nil {
			locEACLs = append(locEACLs, e)
		}
	}

	if *format {
		for _, f := range files {
			fmt.Fprint(out, f.e.String())
		}
		return exit, nil
	}

	if len(queries) > 0 || len(proves) > 0 {
		if exit != 0 {
			return exit, nil // parse failures already reported
		}
		// -system/-local files form one composed target; each positional
		// file is reasoned about as a stand-alone local policy.
		var targets []reasonTarget
		if len(sysEACLs) > 0 || len(locEACLs) > 0 {
			targets = append(targets, reasonTarget{name: "composition", system: sysEACLs, local: locEACLs})
		}
		for _, f := range positional {
			targets = append(targets, reasonTarget{name: f.path, local: []*eacl.EACL{f.e}})
		}
		return runReason(out, queries, proves, values, targets)
	}

	var diags []analysis.Diagnostic
	perFile := make(map[string]int, len(files))
	for _, f := range files {
		ds := analyzer.AnalyzeFile(&analysis.File{EACL: f.e, Known: api.Known})
		perFile[f.path] = len(ds)
		diags = append(diags, ds...)
	}
	if len(sysEACLs) > 0 || len(locEACLs) > 0 {
		diags = append(diags, analyzer.AnalyzeComposition(analysis.NewComposition(sysEACLs, locEACLs))...)
	}
	for _, d := range diags {
		if d.Severity == analysis.SeverityError {
			exit = 1
		}
	}

	switch {
	case *jsonOut:
		doc, err := analysis.JSONReport(diags)
		if err != nil {
			return 2, err
		}
		fmt.Fprintf(out, "%s\n", doc)
	case *sarifOut:
		doc, err := analysis.SARIFReport(diags)
		if err != nil {
			return 2, err
		}
		fmt.Fprintf(out, "%s\n", doc)
	default:
		for _, d := range diags {
			fmt.Fprintf(out, "%s\n", d)
		}
		for _, f := range files {
			if perFile[f.path] == 0 && *explain == "" {
				fmt.Fprintf(out, "%s: ok (%d entries)\n", f.path, len(f.e.Entries))
			}
		}
		if *explain != "" {
			for _, f := range files {
				if err := explainPolicy(out, api, f.e, *explain, params); err != nil {
					return 2, err
				}
			}
		}
	}
	return exit, nil
}

func explainPolicy(out io.Writer, api *gaa.API, e *eacl.EACL, right string, params multiFlag) error {
	req := gaa.NewRequest("apache", right)
	req.Trace = true // --explain renders the specification's full evaluation trace
	for _, p := range params {
		typ, val, ok := strings.Cut(p, "=")
		if !ok {
			return fmt.Errorf("bad -param %q, want type=value", p)
		}
		req.Params = req.Params.With(gaa.Param{Type: typ, Authority: gaa.AuthorityAny, Value: val})
	}
	policy := gaa.NewPolicy("explain", nil, []*eacl.EACL{e})
	ans, _ := api.SpecCheck(context.Background(), policy, req, nil, nil)
	fmt.Fprintf(out, "decision: %s (applicable=%v)\n", ans.Decision, ans.Applicable)
	if ans.Challenge != "" {
		fmt.Fprintf(out, "challenge: %s\n", ans.Challenge)
	}
	for _, ev := range ans.Trace {
		fmt.Fprintf(out, "  %s\n", ev)
	}
	return nil
}

// reasonTarget is one policy set the reasoning engine runs over.
type reasonTarget struct {
	name   string
	system []*eacl.EACL
	local  []*eacl.EACL
}

// reasonReport is the JSON document emitted per target.
type reasonReport struct {
	Target    string                `json:"target"`
	Worlds    int                   `json:"worlds"`
	Truncated bool                  `json:"truncated,omitempty"`
	Queries   []*reason.QueryResult `json:"queries,omitempty"`
	Proofs    []*reason.ProofResult `json:"proofs,omitempty"`
}

// runReason drives -query/-prove: build one engine per target, answer
// every query, discharge every proof. Exit 1 when a proof is not
// proved; a replay disagreement between the specification and the
// compiled engine is an engine bug and exits 2.
func runReason(out io.Writer, queries, proves, values multiFlag, targets []reasonTarget) (int, error) {
	var qs []*reason.Query
	for _, s := range queries {
		q, err := reason.ParseQuery(s)
		if err != nil {
			return 2, err
		}
		qs = append(qs, q)
	}
	opts := reason.Options{Values: map[string]string{}}
	for _, v := range values {
		name, val, ok := strings.Cut(v, "=")
		if !ok {
			return 2, fmt.Errorf("bad -value %q, want name=value", v)
		}
		opts.Values[name] = val
	}
	for _, q := range qs {
		opts.ExtraRights = append(opts.ExtraRights, q.ExtraRights()...)
		if q.NeedsSystemOnly() {
			opts.SystemOnly = true
		}
	}

	exit := 0
	var reports []reasonReport
	for _, tgt := range targets {
		eng, err := reason.New(tgt.system, tgt.local, opts)
		if err != nil {
			return 2, err
		}
		rep := reasonReport{Target: tgt.name, Worlds: eng.Worlds(), Truncated: eng.Truncated()}
		for _, q := range qs {
			res, err := eng.Answer(q)
			if err != nil {
				return 2, err
			}
			rep.Queries = append(rep.Queries, res)
		}
		for _, p := range proves {
			res, err := eng.Prove(p)
			if err != nil {
				return 2, err
			}
			if res.Result != reason.Proved {
				exit = 1
			}
			rep.Proofs = append(rep.Proofs, res)
		}
		reports = append(reports, rep)
	}
	doc, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(out, "%s\n", doc)
	return exit, nil
}
