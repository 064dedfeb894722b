package conditions

import (
	"context"
	"fmt"
	"net"
	"strings"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
)

// locationEvaluator implements pre_cond_location: the client address
// must fall inside one of the listed CIDR ranges or glob patterns
// (the paper's "Allow from 128.9/" host restriction shape). It is a
// selector.
type locationEvaluator struct{}

// locationPattern is one element of a location list as written; cidr
// is nil for an address glob.
type locationPattern struct {
	src  string
	cidr *net.IPNet
}

// locationTest is a parsed location list.
type locationTest struct {
	gaa.NoChallenge
	defAuth string
	pats    []locationPattern
}

// parseLocation reads a non-empty list where every pattern containing
// '/' must parse as a CIDR range; the rest are address globs.
func parseLocation(value, defAuth string) (locationTest, error) {
	fields := strings.Fields(value)
	t := locationTest{defAuth: defAuth, pats: make([]locationPattern, 0, len(fields))}
	for _, p := range fields {
		pat := locationPattern{src: p}
		if strings.Contains(p, "/") {
			var err error
			if _, pat.cidr, err = net.ParseCIDR(p); err != nil {
				return t, fmt.Errorf("bad CIDR %q", p)
			}
		}
		t.pats = append(t.pats, pat)
	}
	if len(t.pats) == 0 {
		return t, fmt.Errorf("empty location list")
	}
	return t, nil
}

// match returns the client address ("" when the request carries none)
// and the first pattern containing it, nil when none does.
func (t locationTest) match(req *gaa.Request) (string, *locationPattern) {
	ip, ok := req.Params.Get(gaa.ParamClientIP, t.defAuth)
	if !ok || ip == "" {
		return "", nil
	}
	parsed := net.ParseIP(ip)
	for i := range t.pats {
		p := &t.pats[i]
		if p.cidr != nil {
			if parsed != nil && p.cidr.Contains(parsed) {
				return ip, p
			}
		} else if eacl.Glob(p.src, ip) {
			return ip, p
		}
	}
	return ip, nil
}

func (t locationTest) EvalCompiled(req *gaa.Request) gaa.CondVerdict {
	ip, hit := t.match(req)
	if ip == "" {
		return gaa.CondMaybe
	}
	return selector(hit != nil)
}

// CompileCond implements gaa.CondCompiler: CIDR patterns parse once
// instead of per evaluation.
func (locationEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	return hoisted(parseLocation(cond.Value, cond.DefAuth))
}

func (locationEvaluator) Evaluate(_ context.Context, cond eacl.Condition, req *gaa.Request) gaa.Outcome {
	t, err := parseLocation(cond.Value, cond.DefAuth)
	if err != nil {
		return malformed(err)
	}
	switch ip, hit := t.match(req); {
	case ip == "":
		return gaa.UnevaluatedOutcome("no client address parameter")
	case hit == nil:
		return gaa.FailedOutcome(gaa.ClassSelector, ip+" outside "+cond.Value)
	case hit.cidr != nil:
		return gaa.MetOutcome(gaa.ClassSelector, ip+" in "+hit.src)
	default:
		return gaa.MetOutcome(gaa.ClassSelector, ip+" matches "+hit.src)
	}
}
