package conditions

import (
	"context"
	"fmt"
	"net"
	"slices"
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

func (locationEvaluator) atoms(value string) (Atoms, error) {
	t, err := parseLocation(value, "")
	a := Atoms{Axis: AxisAddress}
	for _, p := range t.pats {
		if p.cidr != nil {
			a.Exprs = append(a.Exprs, cidrExpr(p.cidr))
		} else {
			a.Globs = append(a.Globs, p.src)
		}
	}
	return a, err
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

// cidrExpr returns the anchored expression of the strings net.ParseIP
// reads as an address block n Contains. Contains folds an IPv4-mapped
// address onto IPv4, so an IPv4 block holds its dotted quads and the
// IPv6 spellings of its addresses inside ::ffff:0:0/96, and an IPv6
// block the IPv6 spellings of its addresses outside ::ffff:0:0/96.
func cidrExpr(n *net.IPNet) string {
	ones, bits := n.Mask.Size()
	ones += 128 - bits // an IPv4 mask counts past the mapped prefix
	ip := n.IP.To16()
	var b box
	for k := range b {
		host := 1<<(16-min(max(ones-16*k, 0), 16)) - 1
		v := (int(ip[2*k])<<8 | int(ip[2*k+1])) &^ host
		b[k] = [2]int{v, v | host}
	}
	if n.IP.To4() != nil {
		return "^(?:" + quad(b[6], b[7]) + "|" + b.spellings() + ")$"
	}
	// Outside ::ffff:0:0/96, group j is the first of the first five that
	// is not 0, or all five are 0 and the sixth is not ffff.
	var alts []string
	for j := range 6 {
		p, lo, hi := b, 1, 0xffff
		if j == 5 {
			lo, hi = 0, 0xfffe
		}
		for k := range j {
			p[k][1] = 0
		}
		p[j] = [2]int{max(p[j][0], lo), min(p[j][1], hi)}
		if !slices.ContainsFunc(p[:j+1], func(r [2]int) bool { return r[0] > r[1] }) {
			alts = append(alts, p.spellings())
		}
	}
	return "^(?:" + strings.Join(alts, "|") + ")$"
}

// box is a set of IPv6 addresses, a range of values per 16-bit group
// whose two bytes range apart (quad relies on it), as a block's do.
type box [8][2]int

// spellings returns the expression of the IPv6 spellings of b's
// addresses: eight groups of 1–4 hex digits, the last two perhaps one
// dotted quad, and at most one "::" for a run of groups that are 0. Each
// place the "::" can stand, after i groups, is one alternative; where
// the run may end is a nest of optional groups after it.
func (b box) spellings() string {
	g := func(k int) string { return numerals(b[k][0], b[k][1], 16) }
	seq := func(from, to int) (s string) {
		for k := from; k < to; k++ {
			s += g(k) + ":"
		}
		return s
	}
	// heads run up to the last two groups; tails are whole addresses
	// whose run takes in the seventh group.
	heads, tails := []string{seq(0, 6)}, []string(nil)
	for i := range 8 {
		z := i // the run may be groups i..j-1 for any j up to z
		for z < 8 && b[z][0] == 0 {
			z++
		}
		pre := strings.TrimSuffix(seq(0, i), ":") + "::"
		if end := min(z, 6); i < end {
			nest := ""
			for k := i + 1; k < end; k++ {
				nest = "(?:" + nest + g(k) + ":)?"
			}
			heads = append(heads, pre+nest+seq(end, 6))
		}
		if i < 7 && z >= 7 {
			tails = append(tails, pre+g(7))
		}
		if z == 8 {
			tails = append(tails, pre)
		}
	}
	last := "(?:" + g(6) + ":" + g(7) + "|" + quad(b[6], b[7]) + ")"
	return strings.Join(append([]string{"(?:" + strings.Join(heads, "|") + ")" + last}, tails...), "|")
}

// quad returns the expression of the dotted quads whose high and low 16
// bits lie in the ranges hi and lo.
func quad(hi, lo [2]int) string {
	o := func(r [2]int, shift int) string { return numerals(r[0]>>shift&255, r[1]>>shift&255, 10) }
	return o(hi, 8) + `\.` + o(hi, 0) + `\.` + o(lo, 8) + `\.` + o(lo, 0)
}

// numerals returns the expression of the numerals of the values lo..hi:
// in base 10 with no leading zero, in base 16 of 1–4 digits in either
// case.
func numerals(lo, hi, base int) string {
	if base == 16 && lo == 0 && hi == 0xffff {
		return "[0-9A-Fa-f]{1,4}"
	}
	var alts []string
	for w, p := 1, 1; w == 1 || p <= hi; w, p = w+1, p*base {
		if a, z := max(lo, p*min(w-1, 1)), min(hi, p*base-1); a <= z {
			lead := strings.Repeat("0?", (4-w)*(base/16)) // a hex group's leading zeros
			alts = append(alts, lead+digits(a, z, p, base))
		}
	}
	return "(?:" + strings.Join(alts, "|") + ")"
}

// digits returns the expression of the numerals of lo..hi whose first
// digit counts p: one digit, then the rest, for a span of first digits
// whose rest ranges alike.
func digits(lo, hi, p, base int) string {
	if p == 0 {
		return ""
	}
	dl, dh, rest := lo/p, hi/p, p/base
	if dl == dh || lo%p == 0 && hi%p == p-1 {
		return class(dl, dh) + digits(lo%p, hi%p, rest, base)
	}
	alts := []string{class(dl, dl) + digits(lo%p, p-1, rest, base)}
	if dl+1 < dh {
		alts = append(alts, class(dl+1, dh-1)+digits(0, p-1, rest, base))
	}
	alts = append(alts, class(dh, dh)+digits(0, hi%p, rest, base))
	return "(?:" + strings.Join(alts, "|") + ")"
}

// class returns the expression of one digit of value a..b, a hex letter
// in either case.
func class(a, b int) string {
	s := ""
	for v := a; v <= b; v++ {
		d := "0123456789abcdef"[v : v+1]
		s += d + strings.ToUpper(d)
	}
	return "[" + s + "]"
}
