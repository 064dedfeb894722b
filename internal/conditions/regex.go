package conditions

import (
	"context"
	"fmt"
	"regexp"
	"strings"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/ids"
)

// regexEvaluator implements pre_cond_regex: the request line must match
// one of the listed patterns — '*'-glob patterns as in the paper's
// examples ("*phf* *test-cgi*"), or full Go regular expressions when
// prefixed with "re:". It is a selector: on a neg entry a match fires
// the denial, no match falls through (paper section 7.2).
type regexEvaluator struct{}

// regexPattern is one element of a pattern list as written; re is nil
// for a glob, which is classified into its shape instead.
type regexPattern struct {
	src  string
	re   *regexp.Regexp
	glob eacl.CompiledGlob
}

// regexTest is a parsed pattern list.
type regexTest struct {
	defAuth string
	pats    []regexPattern
}

// parseRegex reads a non-empty list of patterns where every
// "re:"-prefixed one must compile as a Go regular expression; plain
// patterns are '*'-globs and always valid.
func parseRegex(value, defAuth string) (regexTest, error) {
	fields := strings.Fields(value)
	t := regexTest{defAuth: defAuth, pats: make([]regexPattern, 0, len(fields))}
	for _, p := range fields {
		pat := regexPattern{src: p}
		if expr, isRe := strings.CutPrefix(p, "re:"); isRe {
			var err error
			if pat.re, err = regexp.Compile(expr); err != nil {
				return t, fmt.Errorf("regexp %q does not compile: %v", expr, err)
			}
		} else {
			pat.glob = eacl.CompileGlob(p)
		}
		t.pats = append(t.pats, pat)
	}
	if len(t.pats) == 0 {
		return t, fmt.Errorf("empty pattern list")
	}
	return t, nil
}

func (regexEvaluator) atoms(value string) (Atoms, error) {
	t, err := parseRegex(value, "")
	a := Atoms{Axis: AxisLine}
	for _, p := range t.pats {
		if p.re != nil {
			a.Exprs = append(a.Exprs, p.re.String())
		} else {
			a.Globs = append(a.Globs, p.src)
		}
	}
	return a, err
}

// match returns the first pattern matching the request line, nil when
// none does; ok is false when the request carries no request line.
func (t regexTest) match(req *gaa.Request) (hit *regexPattern, ok bool) {
	subject, ok := req.Params.Get(gaa.ParamRequestURI, t.defAuth)
	if !ok {
		return nil, false
	}
	return t.matchLine(subject), true
}

// matchLine returns the first pattern matching subject, nil when none
// does.
func (t regexTest) matchLine(subject string) *regexPattern {
	for i := range t.pats {
		p := &t.pats[i]
		if p.re != nil {
			if p.re.MatchString(subject) {
				return p
			}
		} else if p.glob.Match(subject) {
			return p
		}
	}
	return nil
}

// compiledRegex is a parsed list as the compiled engine runs it: the
// globs as one eacl.GlobList, so the §7.2 signatures are one scan of
// the request line, then the "re:" expressions. Only whether some
// pattern matches is read, so the order Evaluate keeps for its Detail
// does not matter here.
type compiledRegex struct {
	gaa.NoChallenge
	defAuth string
	globs   *eacl.GlobList
	exprs   []*regexp.Regexp
}

func (c *compiledRegex) EvalCompiled(req *gaa.Request) gaa.CondVerdict {
	subject, ok := req.Params.Get(gaa.ParamRequestURI, c.defAuth)
	if !ok {
		return gaa.CondMaybe
	}
	hit := c.globs.Match(subject)
	for i := 0; !hit && i < len(c.exprs); i++ {
		hit = c.exprs[i].MatchString(subject)
	}
	return selector(hit)
}

// CompileCond implements gaa.CondCompiler: "re:" patterns compile once
// and the globs become one list.
func (regexEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	t, err := parseRegex(cond.Value, cond.DefAuth)
	if err != nil {
		return nil, false
	}
	c := &compiledRegex{defAuth: t.defAuth}
	var globs []string
	for _, p := range t.pats {
		if p.re != nil {
			c.exprs = append(c.exprs, p.re)
		} else {
			globs = append(globs, p.src)
		}
	}
	c.globs = eacl.CompileGlobList(globs)
	return c, true
}

func (regexEvaluator) Evaluate(_ context.Context, cond eacl.Condition, req *gaa.Request) gaa.Outcome {
	t, err := parseRegex(cond.Value, cond.DefAuth)
	if err != nil {
		return malformed(err)
	}
	switch hit, ok := t.match(req); {
	case !ok:
		return gaa.UnevaluatedOutcome("no request_uri parameter")
	case hit == nil:
		return gaa.FailedOutcome(gaa.ClassSelector, "no pattern matched")
	case hit.re != nil:
		return gaa.MetOutcome(gaa.ClassSelector, "regexp "+hit.re.String()+" matched")
	default:
		return gaa.MetOutcome(gaa.ClassSelector, "pattern "+hit.src+" matched")
	}
}

// signatureEvaluator implements pre_cond_signature: the request line
// must match a signature in the shared IDS signature database — either
// the named signature or any ("*"). This extends the paper's inline
// regex conditions with centrally-managed signatures. Selector.
type signatureEvaluator struct {
	db *ids.DB
}

func (s signatureEvaluator) Evaluate(_ context.Context, cond eacl.Condition, req *gaa.Request) gaa.Outcome {
	if s.db == nil {
		return gaa.UnevaluatedOutcome("no signature database configured")
	}
	subject, ok := req.Params.Get(gaa.ParamRequestURI, cond.DefAuth)
	if !ok {
		return gaa.UnevaluatedOutcome("no request_uri parameter")
	}
	want := strings.TrimSpace(cond.Value)
	if want == "*" {
		want = "" // any signature, as an empty value
	}
	if hit, ok := s.db.First(subject, want); ok {
		return gaa.MetOutcome(gaa.ClassSelector, "signature "+hit.Name+" matched")
	}
	return gaa.FailedOutcome(gaa.ClassSelector, "no signature matched")
}
