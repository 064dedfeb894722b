package conditions

import (
	"fmt"
	"net"
	"regexp"
	"strconv"
	"strings"
	"time"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
)

// This file implements gaa.CondCompiler for the cheap built-in
// selectors and requirements: condition-value parsing, pattern
// compilation (CIDRs, regexps) and detail-string formatting move to
// policy-compile time, leaving only the per-request test on the hot
// path. Every CompileCond must reproduce the corresponding Evaluate
// byte-for-byte for trace-disabled requests — when a value cannot be
// fully pre-resolved (it would evaluate to an error or a
// value-dependent MAYBE), compilation is refused and Evaluate keeps
// producing those outcomes per occurrence (the condition stays
// dynamic). The differential fuzz test in internal/gaa pins the
// equivalence.
//
// Not compiled (deliberately): signature (shared mutable DB),
// threshold and quota (stateful counters / mid-phase), file_sha256
// (filesystem), and anything a deployment registers itself.
var (
	_ gaa.CondCompiler = threatEvaluator{}
	_ gaa.CondCompiler = timeWindowEvaluator{}
	_ gaa.CondCompiler = locationEvaluator{}
	_ gaa.CondCompiler = regexEvaluator{}
	_ gaa.CondCompiler = exprEvaluator{}
	_ gaa.CondCompiler = userEvaluator{}
	_ gaa.CondCompiler = groupEvaluator{}
	_ gaa.CondCompiler = hostEvaluator{}
	_ gaa.CondCompiler = redirectEvaluator{}
)

// --- system_threat_level ---

type threatCompiled struct {
	provider ids.LevelProvider
	op       comparator
	want     ids.Level
}

// CompileCond implements gaa.CondCompiler.
func (t threatEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	if t.provider == nil {
		return nil, false
	}
	left, op, right, err := splitCmp(cond.Value)
	if err != nil || left != "" {
		return nil, false
	}
	want, err := ids.ParseLevel(right)
	if err != nil {
		return nil, false
	}
	return threatCompiled{provider: t.provider, op: op, want: want}, true
}

func (c threatCompiled) EvalCompiled(*gaa.Request) gaa.Outcome {
	if c.op.holdsInt(int64(c.provider.Level()), int64(c.want)) {
		return gaa.MetOutcome(gaa.ClassSelector, "threat level matches")
	}
	return gaa.FailedOutcome(gaa.ClassSelector, "threat level differs")
}

// --- time_window ---

type timeWindowCompiled struct {
	start, end int
	checkDays  bool
	days       uint8 // bit i set: time.Weekday(i) allowed
	dayFail    [7]string
	met, fail  string
}

// CompileCond implements gaa.CondCompiler. The window bounds and the
// day bitmask are resolved once; the per-request test is two integer
// comparisons.
func (timeWindowEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	fields := splitFields(cond.Value)
	if len(fields) == 0 || len(fields) > 2 {
		return nil, false
	}
	start, end, err := parseWindow(fields[0])
	if err != nil {
		return nil, false
	}
	c := timeWindowCompiled{
		start: start,
		end:   end,
		met:   "inside window " + fields[0],
		fail:  "outside window " + fields[0],
	}
	if len(fields) == 2 {
		c.checkDays = true
		for d := time.Sunday; d <= time.Saturday; d++ {
			ok, err := dayMatches(fields[1], d)
			if err != nil {
				return nil, false
			}
			if ok {
				c.days |= 1 << uint(d)
			}
			c.dayFail[d] = d.String() + " outside " + fields[1]
		}
	}
	return c, true
}

func (c timeWindowCompiled) EvalCompiled(req *gaa.Request) gaa.Outcome {
	now := req.Time
	if c.checkDays && c.days&(1<<uint(now.Weekday())) == 0 {
		return gaa.FailedOutcome(gaa.ClassSelector, c.dayFail[now.Weekday()])
	}
	cur := now.Hour()*60 + now.Minute()
	var inside bool
	if c.start <= c.end {
		inside = cur >= c.start && cur < c.end
	} else { // wraps midnight
		inside = cur >= c.start || cur < c.end
	}
	if inside {
		return gaa.MetOutcome(gaa.ClassSelector, c.met)
	}
	return gaa.FailedOutcome(gaa.ClassSelector, c.fail)
}

// --- location ---

type locationPattern struct {
	cidr *net.IPNet // nil: raw glob pattern
	glob string
	raw  string
}

type locationCompiled struct {
	defAuth string
	value   string
	pats    []locationPattern
}

// CompileCond implements gaa.CondCompiler: CIDR patterns parse once
// instead of per evaluation. A value with any malformed CIDR stays
// dynamic, because its outcome (an error MAYBE, but only when no
// earlier pattern matched) depends on evaluation order.
func (locationEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	patterns := splitFields(cond.Value)
	if len(patterns) == 0 {
		return nil, false
	}
	c := locationCompiled{defAuth: cond.DefAuth, value: cond.Value}
	for _, p := range patterns {
		if strings.Contains(p, "/") {
			_, ipnet, err := net.ParseCIDR(p)
			if err != nil {
				return nil, false
			}
			c.pats = append(c.pats, locationPattern{cidr: ipnet, raw: p})
			continue
		}
		c.pats = append(c.pats, locationPattern{glob: p, raw: p})
	}
	return c, true
}

func (c locationCompiled) EvalCompiled(req *gaa.Request) gaa.Outcome {
	ip, ok := req.Params.Get(gaa.ParamClientIP, c.defAuth)
	if !ok || ip == "" {
		return gaa.UnevaluatedOutcome("no client address parameter")
	}
	parsed := net.ParseIP(ip)
	for _, p := range c.pats {
		if p.cidr != nil {
			if parsed != nil && p.cidr.Contains(parsed) {
				return gaa.MetOutcome(gaa.ClassSelector, ip+" in "+p.raw)
			}
			continue
		}
		if eacl.Glob(p.glob, ip) {
			return gaa.MetOutcome(gaa.ClassSelector, ip+" matches "+p.raw)
		}
	}
	return gaa.FailedOutcome(gaa.ClassSelector, ip+" outside "+c.value)
}

// --- regex ---

type regexPattern struct {
	re   *regexp.Regexp // nil: glob pattern
	glob string
	met  string
}

type regexCompiled struct {
	defAuth string
	pats    []regexPattern
}

// CompileCond implements gaa.CondCompiler: "re:" patterns compile once
// (bypassing the shared regex cache and its lock) and the match
// details are pre-formatted.
func (regexEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	patterns := splitFields(cond.Value)
	if len(patterns) == 0 {
		return nil, false
	}
	c := regexCompiled{defAuth: cond.DefAuth}
	for _, p := range patterns {
		if expr, isRe := strings.CutPrefix(p, "re:"); isRe {
			re, err := compileCached(expr)
			if err != nil {
				return nil, false
			}
			c.pats = append(c.pats, regexPattern{re: re, met: "regexp " + expr + " matched"})
			continue
		}
		c.pats = append(c.pats, regexPattern{glob: p, met: "pattern " + p + " matched"})
	}
	return c, true
}

func (c regexCompiled) EvalCompiled(req *gaa.Request) gaa.Outcome {
	subject, ok := req.Params.Get(gaa.ParamRequestURI, c.defAuth)
	if !ok {
		return gaa.UnevaluatedOutcome("no request_uri parameter")
	}
	for _, p := range c.pats {
		if p.re != nil {
			if p.re.MatchString(subject) {
				return gaa.MetOutcome(gaa.ClassSelector, p.met)
			}
			continue
		}
		if eacl.Glob(p.glob, subject) {
			return gaa.MetOutcome(gaa.ClassSelector, p.met)
		}
	}
	return gaa.FailedOutcome(gaa.ClassSelector, "no pattern matched")
}

// --- expr ---

type exprCompiled struct {
	param   string
	defAuth string
	op      comparator
	want    int64
	missing string
}

// CompileCond implements gaa.CondCompiler.
func (exprEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	left, op, right, err := splitCmp(cond.Value)
	if err != nil || left == "" {
		return nil, false
	}
	want, err := strconv.ParseInt(right, 10, 64)
	if err != nil {
		return nil, false
	}
	return exprCompiled{
		param:   left,
		defAuth: cond.DefAuth,
		op:      op,
		want:    want,
		missing: "no numeric parameter " + left,
	}, true
}

func (c exprCompiled) EvalCompiled(req *gaa.Request) gaa.Outcome {
	got, ok := req.Params.GetInt(c.param, c.defAuth)
	if !ok {
		return gaa.UnevaluatedOutcome(c.missing)
	}
	if c.op.holdsInt(got, c.want) {
		return gaa.MetOutcome(gaa.ClassSelector, "expr holds")
	}
	return gaa.FailedOutcome(gaa.ClassSelector, "expr does not hold")
}

// --- accessid_USER ---

type userCompiled struct {
	defAuth   string
	patterns  []string
	challenge string
}

// CompileCond implements gaa.CondCompiler: the realm challenge string
// is formatted once.
func (userEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	return userCompiled{
		defAuth:   cond.DefAuth,
		patterns:  splitFields(cond.Value),
		challenge: fmt.Sprintf("Basic realm=%q", cond.DefAuth),
	}, true
}

func (c userCompiled) EvalCompiled(req *gaa.Request) gaa.Outcome {
	user, ok := req.Params.Get(gaa.ParamUser, c.defAuth)
	if !ok || user == "" {
		return gaa.Outcome{
			Result:    gaa.No,
			Class:     gaa.ClassRequirement,
			Challenge: c.challenge,
			Detail:    "no authenticated user",
		}
	}
	for _, want := range c.patterns {
		if eacl.Glob(want, user) {
			return gaa.MetOutcome(gaa.ClassRequirement, "user "+user)
		}
	}
	return gaa.Outcome{
		Result:    gaa.No,
		Class:     gaa.ClassRequirement,
		Challenge: c.challenge,
		Detail:    "user not in list",
	}
}

// --- accessid_GROUP ---

type groupCompiled struct {
	store   *groups.Store
	defAuth string
	group   string
	met     string
	fail    string
}

// CompileCond implements gaa.CondCompiler. The store lookup stays per
// request (membership is live adaptive state — the section 7.2 BadGuys
// blacklist grows under attack) but trimming and detail formatting
// hoist out.
func (g groupEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	if g.store == nil {
		return nil, false
	}
	group := strings.TrimSpace(cond.Value)
	if group == "" {
		return nil, false
	}
	return groupCompiled{
		store:   g.store,
		defAuth: cond.DefAuth,
		group:   group,
		met:     "member of " + group,
		fail:    "not a member of " + group,
	}, true
}

func (c groupCompiled) EvalCompiled(req *gaa.Request) gaa.Outcome {
	for _, paramType := range [...]string{gaa.ParamGroupKey, gaa.ParamUser, gaa.ParamClientIP} {
		key, ok := req.Params.Get(paramType, c.defAuth)
		if !ok || key == "" {
			continue
		}
		if c.store.Contains(c.group, key) {
			return gaa.MetOutcome(gaa.ClassSelector, c.met)
		}
	}
	return gaa.FailedOutcome(gaa.ClassSelector, c.fail)
}

// --- accessid_HOST ---

type hostCompiled struct {
	defAuth  string
	patterns []string
}

// CompileCond implements gaa.CondCompiler.
func (hostEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	return hostCompiled{defAuth: cond.DefAuth, patterns: splitFields(cond.Value)}, true
}

func (c hostCompiled) EvalCompiled(req *gaa.Request) gaa.Outcome {
	host, ok := req.Params.Get(gaa.ParamClientHost, c.defAuth)
	if !ok || host == "" {
		host, ok = req.Params.Get(gaa.ParamClientIP, c.defAuth)
	}
	if !ok || host == "" {
		return gaa.UnevaluatedOutcome("no client host parameter")
	}
	for _, want := range c.patterns {
		if eacl.Glob(want, host) {
			return gaa.MetOutcome(gaa.ClassSelector, "host "+host)
		}
	}
	return gaa.FailedOutcome(gaa.ClassSelector, "host not in list")
}

// --- redirect ---

type redirectCompiled struct{}

// CompileCond implements gaa.CondCompiler: the outcome is a constant
// by design.
func (redirectEvaluator) CompileCond(eacl.Condition) (gaa.CompiledCond, bool) {
	return redirectCompiled{}, true
}

func (redirectCompiled) EvalCompiled(*gaa.Request) gaa.Outcome {
	return gaa.UnevaluatedOutcome("redirect deferred to the application")
}
