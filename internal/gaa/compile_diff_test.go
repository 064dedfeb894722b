package gaa_test

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"gaaapi/internal/actions"
	"gaaapi/internal/audit"
	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/faults"
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
	"gaaapi/internal/netblock"
	"gaaapi/internal/notify"
	"gaaapi/policies/paper"
)

// The differential harness: the production walk and the reference
// oracle (the specification, spec.go) on two APIs built over identical
// dependencies (own threat manager, group store, action sinks and
// fault injector seeded the same way, shared frozen clock) — two, so
// that stateful wrappers, evaluators and actions see one evaluation
// sequence each. Policies are composed once and the same *Policy is
// handed to both, so any divergence in the Answer, or in what the later
// phases answer for it, is the walk's fault.

// diffConfig is one engine configuration the equivalence must hold
// under.
type diffConfig struct {
	name string
	opt  func() gaa.Option // called per API: injectors carry state
}

var diffConfigs = []diffConfig{
	{name: "plain"},
	{name: "timeout", opt: func() gaa.Option { return gaa.WithEvaluatorTimeout(time.Second) }},
	{name: "identity-wrapper", opt: func() gaa.Option {
		return gaa.WithEvaluatorWrapper(func(ev gaa.Evaluator) gaa.Evaluator { return ev })
	}},
	{name: "faults", opt: func() gaa.Option {
		return gaa.WithEvaluatorWrapper(faults.New(11, faults.Spec{Panic: 0.1, Error: 0.15}).Evaluator)
	}},
}

type diffPair struct {
	cfg              diffConfig
	now              time.Time
	walk, oracle     *gaa.API
	walkFx, oracleFx *effects
}

// auditCount is an audit log that counts its records.
type auditCount struct{ n int }

func (a *auditCount) Log(audit.Record) error {
	a.n++
	return nil
}

// effects are what one API's actions act on.
type effects struct {
	audit    *auditCount
	mail     *notify.Mailbox
	groups   *groups.Store
	blocks   *netblock.Set
	threat   *ids.Manager
	counters *conditions.Counters
}

// tally counts what the actions did.
type tally struct {
	audits, mails, badGuys, blocks, counted int
	threat                                  ids.Level
}

func (e *effects) tally() tally {
	n := tally{audits: e.audit.n, mails: e.mail.Count(), badGuys: len(e.groups.Members("BadGuys")),
		blocks: e.blocks.Len(), threat: e.threat.Level()}
	for _, events := range e.counters.Dump() {
		n.counted += len(events)
	}
	return n
}

// sameEffects fails the test when the walk's actions and the oracle's
// have not done the same.
func (d diffPair) sameEffects(t *testing.T, label string) {
	t.Helper()
	if w, o := d.walkFx.tally(), d.oracleFx.tally(); w != o {
		t.Errorf("%s: %s: the actions' effects differ: walk %+v, oracle %+v", d.cfg.name, label, w, o)
	}
}

// budgetEval is a custom mid-condition evaluator: "cpu_ms" holds while
// the parameter is below 100, and is unevaluated without it.
func budgetEval(_ context.Context, c eacl.Condition, r *gaa.Request) gaa.Outcome {
	n, ok := r.Params.GetInt(c.Value, c.DefAuth)
	switch {
	case !ok:
		return gaa.UnevaluatedOutcome("no " + c.Value)
	case n < 100:
		return gaa.MetOutcome(gaa.ClassRequirement, "within budget")
	default:
		return gaa.FailedOutcome(gaa.ClassRequirement, "over budget")
	}
}

func newDiffPair(cfg diffConfig, threat ids.Level, badGuys []string, now time.Time) diffPair {
	clock := func() time.Time { return now }
	mk := func() (*gaa.API, *effects) {
		fx := &effects{
			audit:    new(auditCount),
			mail:     notify.NewMailbox(0),
			groups:   groups.NewStore(),
			blocks:   netblock.NewSet(netblock.WithClock(clock)),
			threat:   ids.NewManager(threat),
			counters: conditions.NewCounters(clock),
		}
		for _, m := range badGuys {
			fx.groups.Add("BadGuys", m)
		}
		opts := []gaa.Option{gaa.WithClock(clock)}
		if cfg.opt != nil {
			opts = append(opts, cfg.opt())
		}
		a := gaa.New(opts...)
		conditions.Register(a, conditions.Deps{Threat: fx.threat, Groups: fx.groups, Counters: fx.counters})
		actions.Register(a, actions.Deps{
			Notifier: fx.mail,
			Groups:   fx.groups,
			Audit:    fx.audit,
			Threat:   fx.threat,
			Blocks:   fx.blocks,
			Counters: fx.counters,
		})
		a.RegisterFunc("budget", gaa.AuthorityAny, budgetEval)
		return a, fx
	}
	d := diffPair{cfg: cfg, now: now}
	d.walk, d.walkFx = mk()
	d.oracle, d.oracleFx = mk()
	return d
}

// check runs the same request through the walk and the oracle and fails
// the test on any observable difference: decision, applicability,
// challenge, unevaluated conditions, mid/post blocks, faults and the
// whole trace. Every check must be served by the walk. It returns the
// walk's answer and the oracle's.
func (d diffPair) check(t *testing.T, label string, p *gaa.Policy, mkReq func() *gaa.Request) (got, want *gaa.Answer) {
	t.Helper()
	ctx := context.Background()
	before := d.walk.CompileStats().Runs
	got, err := d.walk.CheckAuthorization(ctx, p, mkReq())
	if err != nil {
		t.Fatalf("%s: %s: %v", d.cfg.name, label, err)
	}
	if d.walk.CompileStats().Runs != before+1 {
		t.Errorf("%s: %s: check not counted as a run", d.cfg.name, label)
	}
	want = d.oracle.ReferenceCheck(ctx, p, mkReq())
	if diff := answerDiff(got, want); diff != "" {
		t.Errorf("%s: %s: walk and reference answers differ: %s", d.cfg.name, label, diff)
	}
	d.sameEffects(t, label)
	return got, want
}

// usageParams is a usage snapshot as execution control reads it; a
// negative value leaves its parameter out.
func usageParams(cpu, wall, mem, out int) []gaa.Param {
	var ps []gaa.Param
	for i, typ := range [...]string{gaa.ParamCPUMillis, gaa.ParamWallMillis, gaa.ParamMemBytes, gaa.ParamOutputBytes} {
		if v := [...]int{cpu, wall, mem, out}[i]; v >= 0 {
			ps = append(ps, gaa.Param{Type: typ, Authority: gaa.AuthorityAny, Value: strconv.Itoa(v)})
		}
	}
	return ps
}

// phases runs the later phases on the walk's answer got and the
// oracle's want, each on its own API, and fails the test when a
// decision, a trace or the actions' effects differ: ExecutionControl
// with the usage passed
// apart, then as a server passes it, after the request's own
// parameters on a request that carries its time, then
// PostExecutionActions for each operation status.
func (d diffPair) phases(t *testing.T, label string, got, want *gaa.Answer, mkReq func() *gaa.Request, usage []gaa.Param) {
	t.Helper()
	ctx := context.Background()
	req := mkReq
	inline := func() *gaa.Request {
		r := mkReq()
		r.Params = append(r.Params, usage...)
		r.Time = d.now
		return r
	}
	same := func(step string, gd gaa.Decision, gt []gaa.TraceEvent, wd gaa.Decision, wt []gaa.TraceEvent) {
		t.Helper()
		if gd != wd {
			t.Errorf("%s: %s: %s = %v, reference %v", d.cfg.name, label, step, gd, wd)
		} else if diff := traceDiff(gt, wt); diff != "" {
			t.Errorf("%s: %s: %s traces differ: %s", d.cfg.name, label, step, diff)
		}
		d.sameEffects(t, label+", "+step)
	}
	gd, gt := d.walk.ExecutionControl(ctx, got, req(), usage...)
	wd, wt := d.oracle.ReferenceExecutionControl(ctx, want, req(), usage...)
	same("ExecutionControl", gd, gt, wd, wt)
	gd, gt = d.walk.ExecutionControl(ctx, got, inline())
	wd, wt = d.oracle.ReferenceExecutionControl(ctx, want, inline())
	same("ExecutionControl, usage in the request", gd, gt, wd, wt)
	for _, op := range []gaa.Decision{gaa.Yes, gaa.No, gaa.Maybe} {
		gd, gt = d.walk.PostExecutionActions(ctx, got, req(), op)
		wd, wt = d.oracle.ReferencePostExecutionActions(ctx, want, req(), op)
		same("PostExecutionActions "+op.String(), gd, gt, wd, wt)
	}
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
	return traceDiff(c.Trace, i.Trace)
}

func traceDiff(c, i []gaa.TraceEvent) string {
	if len(c) != len(i) || (c == nil) != (i == nil) {
		return fmt.Sprintf("trace %d vs %d events (nil: %v vs %v)", len(c), len(i), c == nil, i == nil)
	}
	for n := range c {
		ct, it := c[n], i[n]
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

// policy72Monitored is the literal-bound 7.2 local policy as a
// deployment serves it with responses and execution control: every
// deny also blocks and audits, and a CGI grant runs under a CPU quota
// with an audit of a failed run.
const policy72Monitored = `
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *///////////////////* *%c0%af* *%255c* *cmd.exe* *root.exe*
rr_cond_notify local on:failure/sysadmin/info:cgiexploit
rr_cond_update_log local on:failure/BadGuys/info:IP
rr_cond_block_ip local on:failure
rr_cond_audit local on:failure/info:cgiexploit
neg_access_right apache *
pre_cond_expr local input_length>1000
rr_cond_notify local on:failure/sysadmin/info:overflow
rr_cond_update_log local on:failure/BadGuys/info:IP
rr_cond_block_ip local on:failure
rr_cond_audit local on:failure/info:overflow
pos_access_right apache GET /cgi-bin/*
mid_cond_quota local cpu_ms<=250
post_cond_audit local on:failure/info:cgi-failed
pos_access_right apache *
`

// sweepUsages are the usage snapshots the sweep runs the later phases
// under: one within the monitored policy's quota, one over it.
var sweepUsages = [][]gaa.Param{usageParams(20, 5, 1<<20, 512), usageParams(400, 9000, 1<<30, 1<<20)}

// repoSweep calls cell on every cell of the repository-policy sweep
// under cfg: the section 7 policies the repository ships
// (policies/paper), their "without notification" variants, the
// literal-bound 7.2 local and its monitored variant, across a request
// matrix of rights, identities, client addresses, CGI input lengths and
// threat levels, one pair of APIs per threat level. Two degenerate
// compositions ride along: all the policies at once (12+ EACLs) and
// none.
func repoSweep(t *testing.T, cfg diffConfig, cell func(d diffPair, label string, p *gaa.Policy, mkReq func() *gaa.Request)) {
	t.Helper()
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
		"72mon":   policy72Monitored,
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
		"GET /cgi-bin/hello",
		"GET /cgi-bin/phf?q=x",
		"GET /cgi-bin/test-cgi",
		"GET /a///////////////////b",
		"POST /scripts/cmd.exe",
	}
	users := []string{"", "alice"}
	ips := []string{"10.9.9.9", "192.168.1.5"}
	inputs := []string{"14", "2000"}
	now := time.Date(2026, time.March, 4, 15, 30, 0, 0, time.UTC)

	for _, threat := range []ids.Level{ids.Low, ids.Medium, ids.High} {
		pair := newDiffPair(cfg, threat, []string{"10.9.9.9"}, now)
		sweep := func(name string, p *gaa.Policy) {
			for _, right := range rights {
				for _, user := range users {
					for _, ip := range ips {
						for _, in := range inputs {
							label := fmt.Sprintf("threat=%v %s right=%q user=%q ip=%s in=%s",
								threat, name, right, user, ip, in)
							mkReq := func() *gaa.Request {
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
							}
							cell(pair, label, p, mkReq)
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
}

// TestCompiledMatchesInterpretedOnRepoPolicies requires, on every cell
// of the repository-policy sweep under every engine configuration, the
// walk's answer to equal the reference oracle's, and the later phases'
// answers for it — execution control under a snapshot within the quota
// and one over it, post-execution for each operation status — to equal
// the oracle's.
func TestCompiledMatchesInterpretedOnRepoPolicies(t *testing.T) {
	for _, cfg := range diffConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			repoSweep(t, cfg, func(pair diffPair, label string, p *gaa.Policy, mkReq func() *gaa.Request) {
				got, want := pair.check(t, label, p, mkReq)
				for _, usage := range sweepUsages {
					pair.phases(t, label, got, want, mkReq, usage)
				}
			})
		})
	}
}

// callLog records, in order, each evaluator call and each hoisted test
// run on one API, as "eval" or "test" and the condition.
type callLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *callLog) add(kind string, c eacl.Condition) {
	l.mu.Lock()
	l.calls = append(l.calls, kind+" "+c.String())
	l.mu.Unlock()
}

// take returns the calls logged since the last take.
func (l *callLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	calls := l.calls
	l.calls = nil
	return calls
}

// loggedEval logs the calls of the evaluator it wraps and of the tests
// compiled from it, hoisting and triggering exactly as that evaluator
// does.
type loggedEval struct {
	gaa.Evaluator
	log *callLog
}

func (e loggedEval) Evaluate(ctx context.Context, c eacl.Condition, r *gaa.Request) gaa.Outcome {
	e.log.add("eval", c)
	return e.Evaluator.Evaluate(ctx, c, r)
}

func (e loggedEval) CompileCond(c eacl.Condition) (gaa.CompiledCond, bool) {
	if comp, ok := e.Evaluator.(gaa.CondCompiler); ok {
		if fast, ok := comp.CompileCond(c); ok {
			return loggedCond{fast, e.log, c}, true
		}
	}
	return nil, false
}

func (e loggedEval) CompileTrigger(c eacl.Condition) func(gaa.Decision) bool {
	if tc, ok := e.Evaluator.(gaa.TriggerCompiler); ok {
		return tc.CompileTrigger(c)
	}
	return nil
}

type loggedCond struct {
	gaa.CompiledCond
	log  *callLog
	cond eacl.Condition
}

func (c loggedCond) EvalCompiled(r *gaa.Request) gaa.CondVerdict {
	c.log.add("test", c.cond)
	return c.CompiledCond.EvalCompiled(r)
}

// TestTraceDoesNotChangeTheCheck: Request.Trace asks the specification
// (SpecCheck) for an explanation and changes nothing the compiled
// engine does. On every cell of the repository-policy sweep, a traced
// check and each later phase of it answer as the untraced ones, field
// by field (trace and faults included), with the same evaluator calls,
// hoisted tests and action effects. The pair's walk API runs untraced,
// its oracle API traced, both through CheckAuthorization.
func TestTraceDoesNotChangeTheCheck(t *testing.T) {
	for _, c := range []struct {
		name string
		wrap func() func(gaa.Evaluator) gaa.Evaluator // one per API: injectors carry state
	}{
		{"plain", func() func(gaa.Evaluator) gaa.Evaluator { return nil }},
		{"faults", func() func(gaa.Evaluator) gaa.Evaluator {
			return faults.New(11, faults.Spec{Panic: 0.1, Error: 0.15}).Evaluator
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var logs []*callLog // untraced, traced
			cfg := diffConfig{name: c.name, opt: func() gaa.Option {
				log, wrap := new(callLog), c.wrap()
				logs = append(logs, log)
				return gaa.WithEvaluatorWrapper(func(ev gaa.Evaluator) gaa.Evaluator {
					if wrap != nil {
						ev = wrap(ev)
					}
					return loggedEval{ev, log}
				})
			}}
			repoSweep(t, cfg, func(d diffPair, label string, p *gaa.Policy, mkReq func() *gaa.Request) {
				untraced, traced := logs[len(logs)-2], logs[len(logs)-1]
				ctx := context.Background()
				tracedReq := func() *gaa.Request {
					r := mkReq()
					r.Trace = true
					return r
				}
				same := func(step string) {
					t.Helper()
					if u, tr := untraced.take(), traced.take(); !slices.Equal(u, tr) {
						t.Errorf("%s: %s: %s calls differ:\nuntraced %q\ntraced   %q", c.name, label, step, u, tr)
					}
					d.sameEffects(t, label+", "+step)
				}
				got, err := d.walk.CheckAuthorization(ctx, p, mkReq())
				if err != nil {
					t.Fatal(err)
				}
				want, err := d.oracle.CheckAuthorization(ctx, p, tracedReq())
				if err != nil {
					t.Fatal(err)
				}
				if diff := answerDiff(got, want); diff != "" {
					t.Errorf("%s: %s: untraced and traced answers differ: %s", c.name, label, diff)
				}
				same("CheckAuthorization")
				phase := func(step string, gd gaa.Decision, gt []gaa.TraceEvent, wd gaa.Decision, wt []gaa.TraceEvent) {
					t.Helper()
					if gd != wd {
						t.Errorf("%s: %s: %s = %v untraced, %v traced", c.name, label, step, gd, wd)
					} else if diff := traceDiff(gt, wt); diff != "" {
						t.Errorf("%s: %s: %s traces differ: %s", c.name, label, step, diff)
					}
					same(step)
				}
				for _, usage := range sweepUsages {
					gd, gt := d.walk.ExecutionControl(ctx, got, mkReq(), usage...)
					wd, wt := d.oracle.ExecutionControl(ctx, want, tracedReq(), usage...)
					phase("ExecutionControl", gd, gt, wd, wt)
				}
				for _, op := range []gaa.Decision{gaa.Yes, gaa.No, gaa.Maybe} {
					gd, gt := d.walk.PostExecutionActions(ctx, got, mkReq(), op)
					wd, wt := d.oracle.PostExecutionActions(ctx, want, tracedReq(), op)
					phase("PostExecutionActions "+op.String(), gd, gt, wd, wt)
				}
			})
		})
	}
}

// FuzzCompiledVsInterpreted is the differential fuzzer: arbitrary
// system/local EACL texts, right values, identities, environment knobs
// and a usage snapshot (cpu, wall, mem, out; a negative value leaves
// its parameter out), with the walk and the reference oracle required
// to agree on the complete answer — decision, reasons, fault
// degradation, trace — and on what the later phases answer for it,
// under every engine configuration. One Policy per configuration is
// checked under a sequence of rights — the fuzzed right (filling its
// rights memo), the same again (reading it), a second right, the first
// again, and both at once — and each answer must also equal a third
// API's on a freshly composed Policy, whose memo is empty. (The name
// predates the oracle's move to the specification; the committed
// testdata/fuzz/ corpus is keyed by it.)
func FuzzCompiledVsInterpreted(f *testing.F) {
	phaseSeed := func(sys, loc, right string, cpu, wall, mem, out int) {
		f.Add(sys, loc, right, "", "1.2.3.4", 14, 0, 12, 2, cpu, wall, mem, out)
	}
	seed := func(sys, loc, right, user, ip string, inputLen, threat, hour, day int) {
		f.Add(sys, loc, right, user, ip, inputLen, threat, hour, day, 20, 5, 1<<20, 512)
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
	// The later phases: each quota comparator on each side of its
	// bound, a usage parameter missing, an '@name' mid value, and a
	// custom mid evaluator (the faults configuration wraps it).
	for _, q := range []string{"cpu_ms<=250", "cpu_ms<250", "wall_ms>=100", "mem_bytes>4096", "output_bytes=512", "cpu_ms!=20"} {
		quota := "pos_access_right apache *\nmid_cond_quota local " + q
		phaseSeed("", quota, "GET /cgi-bin/hello", 20, 100, 4096, 512)
		phaseSeed("", quota, "GET /cgi-bin/hello", 250, 99, 4097, 513)
	}
	phaseSeed("", "pos_access_right apache *\nmid_cond_quota local cpu_ms<=250\nmid_cond_quota local wall_ms<=10", "GET /x", 20, -1, 0, 0)
	phaseSeed("", "pos_access_right apache *\nmid_cond_quota local cpu_ms<=@cpu_limit", "GET /x", 20, 5, 0, 0)
	phaseSeed("", "pos_access_right apache *\nmid_cond_budget local cpu_ms\nmid_cond_budget local wall_ms", "GET /x", 20, 500, 0, 0)
	// Request-result and post actions under each trigger, on a grant,
	// a deny and an uncertain answer.
	for _, trig := range []string{"on:success", "on:failure", "on:any"} {
		acts := "\nrr_cond_audit local " + trig + "/info:rr\nrr_cond_count local " + trig + "/hits\npost_cond_audit local " + trig + "/info:post\npost_cond_update_log local " + trig + "/BadGuys/info:IP"
		phaseSeed("", "pos_access_right apache *"+acts, "GET /x", 20, 5, 0, 0)
		phaseSeed("", "neg_access_right apache *"+acts, "GET /x", 20, 5, 0, 0)
		phaseSeed("", "pos_access_right apache *\npre_cond_mystery local v"+acts, "GET /x", 20, 5, 0, 0)
	}
	phaseSeed(paper.System72, policy72Monitored, "GET /cgi-bin/hello", 400, 5, 0, 0)

	f.Fuzz(func(t *testing.T, sys, loc, right, user, ip string, inputLen, threat, hour, day, cpu, wall, mem, out int) {
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
		usage := usageParams(cpu, wall, mem, out)
		for _, cfg := range diffConfigs {
			pair := newDiffPair(cfg, level, []string{"10.9.9.9"}, now)
			fresh := newDiffPair(cfg, level, []string{"10.9.9.9"}, now)
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
					return r
				}
				label := fmt.Sprintf("request %d for %q", i, rights)
				got, want := pair.check(t, label, p, mkReq)
				pair.phases(t, label, got, want, mkReq, usage)
				// The fresh pair runs the same sequence, so that actions
				// leave the same state behind on all four APIs.
				freshGot, freshWant := fresh.check(t, label, gaa.NewPolicy("/index.html", system, local), mkReq)
				fresh.phases(t, label, freshGot, freshWant, mkReq, usage)
				if diff := answerDiff(got, freshGot); diff != "" {
					t.Errorf("%s: %s: the checked policy and a fresh one answer differently: %s", cfg.name, label, diff)
				}
			}
		}
	})
}
