package gaa_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/faults"
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
	"gaaapi/policies/paper"
)

// The differential harness: the production walk and the reference
// oracle (reference_test.go) on two APIs built over identical
// dependencies (own threat manager, group store and fault injector
// seeded the same way, shared frozen clock) — two, so that stateful
// wrappers and evaluators see one evaluation sequence each. Policies
// are composed once and the same *Policy is handed to both, so any
// divergence in the Answer is the walk's fault.

// diffConfig is one engine configuration the equivalence must hold
// under.
type diffConfig struct {
	name  string
	opt   func() gaa.Option // called per API: injectors carry state
	trace bool              // set Request.Trace
}

var diffConfigs = []diffConfig{
	{name: "plain"},
	{name: "tracing", opt: gaa.WithTracing},
	{name: "request-trace", trace: true},
	{name: "timeout", opt: func() gaa.Option { return gaa.WithEvaluatorTimeout(time.Second) }},
	{name: "identity-wrapper", opt: func() gaa.Option {
		return gaa.WithEvaluatorWrapper(func(ev gaa.Evaluator) gaa.Evaluator { return ev })
	}},
	{name: "faults", opt: func() gaa.Option {
		return gaa.WithEvaluatorWrapper(faults.New(11, faults.Spec{Panic: 0.1, Error: 0.15}).Evaluator)
	}},
}

type diffPair struct {
	cfg    diffConfig
	walk   *gaa.API
	oracle *gaa.API
}

func newDiffPair(cfg diffConfig, threat ids.Level, badGuys []string, now time.Time) diffPair {
	mk := func() *gaa.API {
		store := groups.NewStore()
		for _, m := range badGuys {
			store.Add("BadGuys", m)
		}
		opts := []gaa.Option{gaa.WithClock(func() time.Time { return now })}
		if cfg.opt != nil {
			opts = append(opts, cfg.opt())
		}
		a := gaa.New(opts...)
		conditions.Register(a, conditions.Deps{
			Threat: ids.NewManager(threat),
			Groups: store,
		})
		return a
	}
	return diffPair{cfg: cfg, walk: mk(), oracle: mk()}
}

// check runs the same request through the walk and the oracle and fails
// the test on any observable difference: decision, applicability,
// challenge, unevaluated conditions, mid/post blocks, faults and the
// whole trace. Every check must be served by the walk. It returns the
// walk's answer.
func (d diffPair) check(t *testing.T, label string, p *gaa.Policy, mkReq func() *gaa.Request) *gaa.Answer {
	t.Helper()
	ctx := context.Background()
	req := func() *gaa.Request {
		r := mkReq()
		r.Trace = d.cfg.trace
		return r
	}
	before := d.walk.CompileStats().Runs
	got, err := d.walk.CheckAuthorization(ctx, p, req())
	if err != nil {
		t.Fatalf("%s: %s: %v", d.cfg.name, label, err)
	}
	if d.walk.CompileStats().Runs != before+1 {
		t.Errorf("%s: %s: check not counted as a run", d.cfg.name, label)
	}
	want := d.oracle.ReferenceCheck(ctx, p, req())
	if diff := answerDiff(got, want); diff != "" {
		t.Errorf("%s: %s: walk and reference answers differ: %s", d.cfg.name, label, diff)
	}
	return got
}

func answerDiff(c, i *gaa.Answer) string {
	if c.Decision != i.Decision {
		return fmt.Sprintf("decision %v vs %v", c.Decision, i.Decision)
	}
	if c.Applicable != i.Applicable {
		return fmt.Sprintf("applicable %v vs %v", c.Applicable, i.Applicable)
	}
	if c.Challenge != i.Challenge {
		return fmt.Sprintf("challenge %q vs %q", c.Challenge, i.Challenge)
	}
	if len(c.Unevaluated) != len(i.Unevaluated) {
		return fmt.Sprintf("unevaluated %d vs %d conds", len(c.Unevaluated), len(i.Unevaluated))
	}
	for n := range c.Unevaluated {
		if c.Unevaluated[n] != i.Unevaluated[n] {
			return fmt.Sprintf("unevaluated[%d] %+v vs %+v", n, c.Unevaluated[n], i.Unevaluated[n])
		}
	}
	if len(c.Mid) != len(i.Mid) || len(c.Post) != len(i.Post) {
		return fmt.Sprintf("mid/post %d/%d vs %d/%d conds", len(c.Mid), len(c.Post), len(i.Mid), len(i.Post))
	}
	for n := range c.Mid {
		if c.Mid[n] != i.Mid[n] {
			return fmt.Sprintf("mid[%d] %+v vs %+v", n, c.Mid[n], i.Mid[n])
		}
	}
	for n := range c.Post {
		if c.Post[n] != i.Post[n] {
			return fmt.Sprintf("post[%d] %+v vs %+v", n, c.Post[n], i.Post[n])
		}
	}
	if len(c.Faults) != len(i.Faults) {
		return fmt.Sprintf("faults %d vs %d", len(c.Faults), len(i.Faults))
	}
	for n := range c.Faults {
		cf, fi := c.Faults[n], i.Faults[n]
		if cf.Cond != fi.Cond || cf.Kind != fi.Kind || cf.Reason != fi.Reason {
			return fmt.Sprintf("fault[%d] {%v %v %q} vs {%v %v %q}",
				n, cf.Cond.Type, cf.Kind, cf.Reason, fi.Cond.Type, fi.Kind, fi.Reason)
		}
	}
	// Untraced requests still trace degraded evaluations.
	if len(c.Trace) != len(i.Trace) || (c.Trace == nil) != (i.Trace == nil) {
		return fmt.Sprintf("trace %d vs %d events (nil: %v vs %v)", len(c.Trace), len(i.Trace), c.Trace == nil, i.Trace == nil)
	}
	for n := range c.Trace {
		ct, it := c.Trace[n], i.Trace[n]
		// Errors are distinct values on the two APIs; compare their text
		// and everything else exactly.
		if fmt.Sprint(ct.Outcome.Err) != fmt.Sprint(it.Outcome.Err) {
			return fmt.Sprintf("trace[%d] err %v vs %v", n, ct.Outcome.Err, it.Outcome.Err)
		}
		ct.Outcome.Err, it.Outcome.Err = nil, nil
		if ct != it {
			return fmt.Sprintf("trace[%d] differs: %+v vs %+v", n, ct, it)
		}
	}
	return ""
}

func composePolicy(t *testing.T, a *gaa.API, object, sysText, locText string) *gaa.Policy {
	t.Helper()
	var system, local []gaa.PolicySource
	if sysText != "" {
		src := gaa.NewMemorySource()
		if err := src.AddPolicy("*", sysText); err != nil {
			t.Fatalf("system policy: %v", err)
		}
		system = append(system, src)
	}
	if locText != "" {
		src := gaa.NewMemorySource()
		if err := src.AddPolicy("*", locText); err != nil {
			t.Fatalf("local policy: %v", err)
		}
		local = append(local, src)
	}
	p, err := a.GetObjectPolicyInfo(object, system, local)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// policy72LocalLiteral is the section 7.2 local policy with its input
// bound written as the literal 1000 instead of the shipped file's
// @max_input: a literal is hoisted into the compiled comparison, a
// reference stays dynamic, and the sweep must meet both.
const policy72LocalLiteral = `
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *///////////////////* *%c0%af* *%255c* *cmd.exe* *root.exe*
rr_cond_notify local on:failure/sysadmin/info:cgiexploit
rr_cond_update_log local on:failure/BadGuys/info:IP
neg_access_right apache *
pre_cond_expr local input_length>1000
rr_cond_notify local on:failure/sysadmin/info:overflow
rr_cond_update_log local on:failure/BadGuys/info:IP
pos_access_right apache *
`

// TestCompiledMatchesInterpretedOnRepoPolicies sweeps the section 7
// policies the repository ships (policies/paper), their "without
// notification" variants and the literal-bound 7.2 local across a
// request matrix of rights, identities, client addresses, CGI input
// lengths and threat levels, under every engine configuration,
// requiring the walk's answer to equal the reference oracle's on each
// cell. Two degenerate compositions ride along: all the policies at
// once (12+ EACLs) and none.
func TestCompiledMatchesInterpretedOnRepoPolicies(t *testing.T) {
	sysPolicies := map[string]string{
		"none": "",
		"71":   paper.System71,
		"72":   paper.System72,
	}
	locPolicies := map[string]string{
		"71":      paper.Local71,
		"72":      paper.Local72,
		"72nn":    paper.Without(paper.Local72, "notify"),
		"72lit":   policy72LocalLiteral,
		"72litnn": paper.Without(policy72LocalLiteral, "notify"),
	}

	// The degenerate compositions: every policy at once, twice over
	// (well past the eight EACLs a composition key used to hold), and
	// no policy at all.
	parseAll := func(texts map[string]string) []*eacl.EACL {
		var out []*eacl.EACL
		for round := 0; round < 2; round++ {
			for name, text := range texts {
				if text == "" {
					continue
				}
				e, err := eacl.ParseString(text)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out = append(out, e)
			}
		}
		return out
	}
	everything := gaa.NewPolicy("/index.html", parseAll(sysPolicies), parseAll(locPolicies))
	if n := len(everything.System) + len(everything.Local); n < 12 {
		t.Fatalf("large composition has %d EACLs, want at least 12", n)
	}
	nothing := gaa.NewPolicy("/index.html", nil, nil)

	rights := []string{
		"GET /index.html",
		"GET /cgi-bin/phf?q=x",
		"GET /cgi-bin/test-cgi",
		"GET /a///////////////////b",
		"POST /scripts/cmd.exe",
	}
	users := []string{"", "alice"}
	ips := []string{"10.9.9.9", "192.168.1.5"}
	inputs := []string{"14", "2000"}
	now := time.Date(2026, time.March, 4, 15, 30, 0, 0, time.UTC)

	for _, cfg := range diffConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			for _, threat := range []ids.Level{ids.Low, ids.Medium, ids.High} {
				pair := newDiffPair(cfg, threat, []string{"10.9.9.9"}, now)
				sweep := func(name string, p *gaa.Policy) {
					for _, right := range rights {
						for _, user := range users {
							for _, ip := range ips {
								for _, in := range inputs {
									label := fmt.Sprintf("threat=%v %s right=%q user=%q ip=%s in=%s",
										threat, name, right, user, ip, in)
									pair.check(t, label, p, func() *gaa.Request {
										params := gaa.ParamList{
											{Type: gaa.ParamClientIP, Authority: gaa.AuthorityAny, Value: ip},
											{Type: gaa.ParamInputLength, Authority: gaa.AuthorityAny, Value: in},
										}
										if user != "" {
											params = append(params, gaa.Param{
												Type: gaa.ParamUser, Authority: gaa.AuthorityAny, Value: user,
											})
										}
										return gaa.NewRequest("apache", right, params...)
									})
								}
							}
						}
					}
				}
				for sysName, sysText := range sysPolicies {
					for locName, locText := range locPolicies {
						sweep(fmt.Sprintf("sys=%s loc=%s", sysName, locName),
							composePolicy(t, pair.walk, "/index.html", sysText, locText))
					}
				}
				sweep("everything", everything)
				sweep("nothing", nothing)
			}
		})
	}
}

// FuzzCompiledVsInterpreted is the differential fuzzer: arbitrary
// system/local EACL texts, right values, identities and environment
// knobs, with the walk and the reference oracle required to agree on
// the complete answer — decision, reasons, fault degradation, trace —
// under every engine configuration. One Policy per configuration is
// checked under a sequence of rights — the fuzzed right (filling its
// rights memo), the same again (reading it), a second right, the first
// again, and both at once — and each answer must also equal a third API's
// on a freshly composed Policy, whose memo is empty. (The name predates
// the oracle's move to reference_test.go; the committed testdata/fuzz/
// corpus is keyed by it.)
func FuzzCompiledVsInterpreted(f *testing.F) {
	seed := func(sys, loc, right, user, ip string, inputLen, threat, hour, day int) {
		f.Add(sys, loc, right, user, ip, inputLen, threat, hour, day)
	}
	// Section 7 combinations.
	seed(paper.System71, paper.Local71, "GET /index.html", "", "10.9.9.9", 14, 2, 15, 3)
	seed(paper.System72, policy72LocalLiteral, "GET /cgi-bin/phf?q=x", "alice", "10.9.9.9", 14, 0, 15, 3)
	seed("", paper.Without(policy72LocalLiteral, "notify"), "GET /index.html", "", "192.168.1.5", 2000, 1, 9, 0)
	// Redirect left unevaluated for the application.
	seed("", "pos_access_right apache *\npre_cond_redirect local http://mirror.example/", "GET /x", "", "1.2.3.4", 0, 0, 0, 0)
	// Authentication challenge from a failed USER requirement.
	seed("", "pos_access_right apache *\npre_cond_accessid_USER apache alice bob", "GET /x", "", "1.2.3.4", 0, 0, 0, 0)
	// Unknown condition type: no evaluator registered.
	seed("", "pos_access_right apache *\npre_cond_mystery local v", "GET /x", "", "1.2.3.4", 0, 0, 0, 0)
	// '@' value reference: stays dynamic.
	seed("", "pos_access_right apache *\npre_cond_location local @trusted_nets", "GET /x", "", "1.2.3.4", 0, 0, 0, 0)
	// Malformed CIDR degrades to an error fault identically.
	seed("", "pos_access_right apache *\npre_cond_location local 10.0.0.0/16 not-a-cidr", "GET /x", "", "10.0.1.2", 0, 0, 0, 0)
	// Anchored regex and a wrapping overnight time window.
	seed("", "neg_access_right apache *\npre_cond_regex gnu re:^GET /secret/.*$\npos_access_right apache *", "GET /secret/x", "", "1.2.3.4", 0, 0, 0, 0)
	seed(paper.System71, "pos_access_right apache *\npre_cond_time_window local 18:00-08:00", "GET /x", "", "1.2.3.4", 0, 1, 23, 5)
	seed("", "pos_access_right apache *\npre_cond_time_window local 09:00-17:00 Mon-Fri", "GET /x", "", "1.2.3.4", 0, 0, 12, 6)
	// Threat-level comparison operators and group membership.
	seed("eacl_mode narrow\nneg_access_right * *\npre_cond_system_threat_level local >=medium", "pos_access_right apache *", "GET /x", "", "1.2.3.4", 0, 2, 0, 0)
	seed("", "neg_access_right apache *\npre_cond_accessid_GROUP local BadGuys\npos_access_right apache *", "GET /x", "", "10.9.9.9", 0, 0, 0, 0)
	// Numeric expression against a missing parameter.
	seed("", "pos_access_right apache *\npre_cond_expr local bogus_param>10", "GET /x", "", "1.2.3.4", 50, 0, 0, 0)
	// Per-path rights: the second right of the sequence covers other
	// entries than the one the rights memo remembers.
	seed("", "neg_access_right apache GET /cgi-bin/*\npos_access_right apache *", "GET /index.html", "", "1.2.3.4", 0, 0, 0, 0)

	f.Fuzz(func(t *testing.T, sys, loc, right, user, ip string, inputLen, threat, hour, day int) {
		mod := func(v, n int) int { return ((v % n) + n) % n }
		level := ids.Level(mod(threat, 3) + 1)
		now := time.Date(2026, time.March, 1+mod(day, 28), mod(hour, 24), 30, 0, 0, time.UTC)
		var system, local []*eacl.EACL
		for _, lv := range []struct {
			text string
			dst  *[]*eacl.EACL
		}{{sys, &system}, {loc, &local}} {
			if lv.text == "" {
				continue
			}
			e, err := eacl.ParseString(lv.text)
			if err != nil {
				t.Skip("unparseable policy")
			}
			*lv.dst = append(*lv.dst, e)
		}
		if len(system)+len(local) == 0 {
			t.Skip("no policy")
		}
		second := "GET /cgi-bin/phf?q=x"
		if right == second {
			second = "GET /index.html"
		}
		for _, cfg := range diffConfigs {
			pair := newDiffPair(cfg, level, []string{"10.9.9.9"}, now)
			fresh := newDiffPair(cfg, level, []string{"10.9.9.9"}, now).walk
			p := gaa.NewPolicy("/index.html", system, local)
			for i, rights := range [][]string{{right}, {right}, {second}, {right}, {right, second}} {
				mkReq := func() *gaa.Request {
					params := gaa.ParamList{
						{Type: gaa.ParamClientIP, Authority: gaa.AuthorityAny, Value: ip},
						{Type: gaa.ParamInputLength, Authority: gaa.AuthorityAny, Value: fmt.Sprint(mod(inputLen, 1<<16))},
					}
					if user != "" {
						params = append(params, gaa.Param{
							Type: gaa.ParamUser, Authority: gaa.AuthorityAny, Value: user,
						})
					}
					r := gaa.NewRequest("apache", rights[0], params...)
					for _, v := range rights[1:] {
						r.Rights = append(r.Rights, eacl.Right{Sign: eacl.Pos, DefAuth: "apache", Value: v})
					}
					r.Trace = cfg.trace
					return r
				}
				label := fmt.Sprintf("request %d for %q", i, rights)
				got := pair.check(t, label, p, mkReq)
				want, err := fresh.CheckAuthorization(context.Background(), gaa.NewPolicy("/index.html", system, local), mkReq())
				if err != nil {
					t.Fatalf("%s: %s: %v", cfg.name, label, err)
				}
				if diff := answerDiff(got, want); diff != "" {
					t.Errorf("%s: %s: the checked policy and a fresh one answer differently: %s", cfg.name, label, diff)
				}
			}
		}
	})
}
