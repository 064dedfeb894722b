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
// selectors and requirements: condition-value parsing and pattern
// compilation (CIDRs, regexps, glob shapes) move to policy-compile
// time, leaving only the per-request test on the hot path, answered as
// one gaa.CondVerdict word. Every CompileCond must reproduce the
// result, class and challenge of the corresponding Evaluate — when a
// value cannot be fully pre-resolved (it would evaluate to an error or
// a value-dependent MAYBE), compilation is refused and Evaluate keeps
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

// selector is the verdict of a selector test.
func selector(met bool) gaa.CondVerdict {
	if met {
		return gaa.CondYes
	}
	return gaa.CondNo
}

// --- system_threat_level ---

type threatCompiled struct {
	gaa.NoChallenge
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

func (c threatCompiled) EvalCompiled(*gaa.Request) gaa.CondVerdict {
	return selector(c.op.holdsInt(int64(c.provider.Level()), int64(c.want)))
}

// --- time_window ---

type timeWindowCompiled struct {
	gaa.NoChallenge
	start, end int
	days       uint8 // bit i set: time.Weekday(i) allowed
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
	c := timeWindowCompiled{start: start, end: end, days: 1<<7 - 1} // every day, unless a day field narrows it
	if len(fields) == 2 {
		c.days = 0
		for d := time.Sunday; d <= time.Saturday; d++ {
			ok, err := dayMatches(fields[1], d)
			if err != nil {
				return nil, false
			}
			if ok {
				c.days |= 1 << uint(d)
			}
		}
	}
	return c, true
}

func (c timeWindowCompiled) EvalCompiled(req *gaa.Request) gaa.CondVerdict {
	now := req.Time
	if c.days&(1<<uint(now.Weekday())) == 0 {
		return gaa.CondNo
	}
	cur := now.Hour()*60 + now.Minute()
	if c.start <= c.end {
		return selector(cur >= c.start && cur < c.end)
	}
	return selector(cur >= c.start || cur < c.end) // wraps midnight
}

// --- location ---

type locationPattern struct {
	cidr *net.IPNet // nil: raw glob pattern
	glob string
}

type locationCompiled struct {
	gaa.NoChallenge
	defAuth string
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
	c := locationCompiled{defAuth: cond.DefAuth}
	for _, p := range patterns {
		if strings.Contains(p, "/") {
			_, ipnet, err := net.ParseCIDR(p)
			if err != nil {
				return nil, false
			}
			c.pats = append(c.pats, locationPattern{cidr: ipnet})
			continue
		}
		c.pats = append(c.pats, locationPattern{glob: p})
	}
	return c, true
}

func (c locationCompiled) EvalCompiled(req *gaa.Request) gaa.CondVerdict {
	ip, ok := req.Params.Get(gaa.ParamClientIP, c.defAuth)
	if !ok || ip == "" {
		return gaa.CondMaybe
	}
	parsed := net.ParseIP(ip)
	for _, p := range c.pats {
		if p.cidr != nil {
			if parsed != nil && p.cidr.Contains(parsed) {
				return gaa.CondYes
			}
			continue
		}
		if eacl.Glob(p.glob, ip) {
			return gaa.CondYes
		}
	}
	return gaa.CondNo
}

// --- regex ---

type regexPattern struct {
	re   *regexp.Regexp // nil: glob pattern
	glob eacl.CompiledGlob
}

type regexCompiled struct {
	gaa.NoChallenge
	defAuth string
	pats    []regexPattern
}

// CompileCond implements gaa.CondCompiler: "re:" patterns compile once
// (bypassing the shared regex cache and its lock) and globs are
// classified into their shapes.
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
			c.pats = append(c.pats, regexPattern{re: re})
			continue
		}
		c.pats = append(c.pats, regexPattern{glob: eacl.CompileGlob(p)})
	}
	return c, true
}

func (c regexCompiled) EvalCompiled(req *gaa.Request) gaa.CondVerdict {
	subject, ok := req.Params.Get(gaa.ParamRequestURI, c.defAuth)
	if !ok {
		return gaa.CondMaybe
	}
	for i := range c.pats {
		p := &c.pats[i]
		if p.re != nil {
			if p.re.MatchString(subject) {
				return gaa.CondYes
			}
		} else if p.glob.Match(subject) {
			return gaa.CondYes
		}
	}
	return gaa.CondNo
}

// --- expr ---

type exprCompiled struct {
	gaa.NoChallenge
	param   string
	defAuth string
	op      comparator
	want    int64
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
	return exprCompiled{param: left, defAuth: cond.DefAuth, op: op, want: want}, true
}

func (c exprCompiled) EvalCompiled(req *gaa.Request) gaa.CondVerdict {
	got, ok := req.Params.GetInt(c.param, c.defAuth)
	if !ok {
		return gaa.CondMaybe
	}
	return selector(c.op.holdsInt(got, c.want))
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

func (c userCompiled) EvalCompiled(req *gaa.Request) gaa.CondVerdict {
	if user, ok := req.Params.Get(gaa.ParamUser, c.defAuth); ok && user != "" {
		for _, want := range c.patterns {
			if eacl.Glob(want, user) {
				return gaa.CondYes | gaa.CondRequirement
			}
		}
	}
	return gaa.CondNo | gaa.CondRequirement | gaa.CondChallenge
}

// Challenge implements gaa.CompiledCond.
func (c userCompiled) Challenge() string { return c.challenge }

// --- accessid_GROUP ---

type groupCompiled struct {
	gaa.NoChallenge
	store   *groups.Store
	defAuth string
	group   string
}

// CompileCond implements gaa.CondCompiler. The store lookup stays per
// request (membership is live adaptive state — the section 7.2 BadGuys
// blacklist grows under attack) but trimming hoists out.
func (g groupEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	if g.store == nil {
		return nil, false
	}
	group := strings.TrimSpace(cond.Value)
	if group == "" {
		return nil, false
	}
	return groupCompiled{store: g.store, defAuth: cond.DefAuth, group: group}, true
}

func (c groupCompiled) EvalCompiled(req *gaa.Request) gaa.CondVerdict {
	for _, paramType := range [...]string{gaa.ParamGroupKey, gaa.ParamUser, gaa.ParamClientIP} {
		key, ok := req.Params.Get(paramType, c.defAuth)
		if !ok || key == "" {
			continue
		}
		if c.store.Contains(c.group, key) {
			return gaa.CondYes
		}
	}
	return gaa.CondNo
}

// --- accessid_HOST ---

type hostCompiled struct {
	gaa.NoChallenge
	defAuth  string
	patterns []string
}

// CompileCond implements gaa.CondCompiler.
func (hostEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	return hostCompiled{defAuth: cond.DefAuth, patterns: splitFields(cond.Value)}, true
}

func (c hostCompiled) EvalCompiled(req *gaa.Request) gaa.CondVerdict {
	host, ok := req.Params.Get(gaa.ParamClientHost, c.defAuth)
	if !ok || host == "" {
		host, ok = req.Params.Get(gaa.ParamClientIP, c.defAuth)
	}
	if !ok || host == "" {
		return gaa.CondMaybe
	}
	for _, want := range c.patterns {
		if eacl.Glob(want, host) {
			return gaa.CondYes
		}
	}
	return gaa.CondNo
}

// --- redirect ---

type redirectCompiled struct{ gaa.NoChallenge }

// CompileCond implements gaa.CondCompiler: the outcome is a constant
// by design.
func (redirectEvaluator) CompileCond(eacl.Condition) (gaa.CompiledCond, bool) {
	return redirectCompiled{}, true
}

func (redirectCompiled) EvalCompiled(*gaa.Request) gaa.CondVerdict { return gaa.CondMaybe }
