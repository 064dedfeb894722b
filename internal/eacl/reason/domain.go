package reason

import (
	"context"
	"errors"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"

	"gaaapi/internal/actions"
	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
)

// The domain is the request space cut into regions. A region is a cube:
// per request axis, the cells of the policy's atoms (conditions.AtomsOf)
// it lies in. A glob or "re:" list is a string language, and so is a
// CIDR, the strings the location condition places in its block; a
// string axis holds the languages its strings must be in and must
// avoid. A time window is a set of minutes of the week; a comparison
// cuts its parameter into absent and the intervals on which it holds or
// fails; a group is a membership bit; the threat level is one of three.
// The first-match scan is walked over cubes (Engine.scan): each entry
// cuts the cube it is reached with into the pieces on which its right
// and each of its conditions read one cell, and each piece's witness —
// one request, the shortest string of each language intersection
// (eacl.Witness) — tells through the real evaluators what the entry
// does on all of it. The pieces it decides leave the scan, the rest go
// on to the next entry. So a verdict read off a witness holds for its
// whole cube, and the cubes cover every request but where the domain
// says it falls short (why): a condition whose truth depends on state
// outside the request (conditions.Atoms.Ambient), a walk past its
// budget (maxCubes), or a string search past its own or that cannot
// tell. An unregistered or malformed condition is MAYBE for every
// request, and claims never pass through it (see DESIGN.md §5.2).

// baseTime is the instant witnesses prefer: a Monday noon, fixed so
// answers are reproducible. A witness minute of the week is a minute of
// the week starting on that Monday.
var baseTime = time.Date(2026, time.January, 5, 12, 0, 0, 0, time.UTC)

// Each string axis prefers one witness while its cube holds it, so
// witnesses read like requests: an authenticated user, a client address
// (RFC 5737) and a request line.
const (
	defaultUser = "user"
	defaultIP   = "203.0.113.77"
	defaultLine = "GET /index.html"
)

// empty is the glob "", the language of the empty string: the evaluators
// read an empty user or client address as none at all, so users and
// addresses lie outside it, and their searches stay in bytes.
var empty = &lang{Language: eacl.Language{Globs: []string{""}}, match: func(s string) bool { return s == "" }}

// intChoice is one value of an integer request parameter: a value, or
// the parameter being absent from the request.
type intChoice struct {
	val     int64
	present bool
}

// domain is what the walk reads of one composed policy: the groups and
// integer parameters its conditions name, the text's answers, and its
// ambient conditions.
type domain struct {
	groups  []string // group names; membership is a per-name bit
	intDims []string // parameter names compared
	// The text's answers, one engine's whichever walk asks: the '@' values,
	// each condition's atoms, the languages by glob or by condition type
	// and value, and each search by the languages it was asked about.
	values mapValues
	read   map[[2]string]atoms
	langs  map[string]*lang
	found  map[string]found
	// ambient holds the condition types whose truth depends on state
	// outside the request; why says how that leaves the domain short.
	ambient map[string]bool
	why     string
	shorts  int      // times the domain fell short
	cubes   int      // cut so far, against maxCubes
	over    []string // the searches past their budget charged so far
}

// incomplete reports whether the domain is known not to cover the
// policy's behaviours, downgrading universal claims to "unknown".
func (d *domain) incomplete() bool { return d.why != "" }

// short records why the domain falls short of the policy; the first
// reason stands.
func (d *domain) short(why string) {
	if d.shorts++; d.why == "" {
		d.why = why
	}
}

// maxCubes bounds the cubes one walk cuts, a world counting once per
// EACL it is folded and replayed through: about a second of work on a
// 2-CPU host, where the 200-entry signature list composed with 64
// per-directory locals takes a quarter of it. Independent conditions
// multiply cubes (k group-guarded per-directory locals cut 2^k), so past
// it the walk stops short, the domain incomplete.
const maxCubes = 1 << 19

// spend counts n more cubes cut, and reports whether the walk is past
// its budget.
func (d *domain) spend(n int) bool {
	if d.cubes += n; d.cubes > maxCubes {
		d.short(fmt.Sprintf("the walk exceeds %d cubes", maxCubes))
	}
	return d.cubes > maxCubes
}

// world is one witness request: one point of a cube.
type world struct {
	right  eacl.Right
	threat ids.Level
	user   string
	member []bool // parallel to domain.groups
	ip     string
	uri    string
	at     time.Time
	ints   []intChoice // parallel to domain.intDims
}

// buildDomain collects the groups and parameters every pre and
// request-result condition of the composition names, and its ambient
// conditions, with the text's answers shared's are.
func buildDomain(eacls []*eacl.EACL, shared *domain) *domain {
	d := &domain{values: shared.values, read: shared.read, langs: shared.langs, found: shared.found, ambient: map[string]bool{}}
	groupSet, intSet := map[string]bool{}, map[string]bool{}
	for _, e := range eacls {
		for _, en := range e.Entries {
			for _, c := range en.Conditions {
				if c.Block != eacl.BlockPre && c.Block != eacl.BlockRequestResult {
					continue
				}
				a, cells := d.atoms(c)
				if a.Ambient && !d.ambient[c.Type] {
					d.ambient[c.Type] = true
					if d.why == "" {
						d.why = fmt.Sprintf("%s_%s reads state outside the request", c.Block, c.Type)
					}
				}
				switch {
				case !cells:
				case a.Axis == conditions.AxisGroup:
					groupSet[a.Group] = true
				case a.Axis == conditions.AxisInt:
					intSet[a.Param] = true
				}
			}
		}
	}
	d.groups = sorted(groupSet, strings.Compare)
	d.intDims = sorted(intSet, strings.Compare)
	return d
}

// atoms is what a condition reads, once per type and value.
type atoms struct {
	conditions.Atoms
	cells bool
}

// atoms returns what condition c reads: its axis always, and its cells
// when its value resolves and parses (cells); otherwise c is MAYBE for
// every request.
func (d *domain) atoms(c eacl.Condition) (conditions.Atoms, bool) {
	key := [2]string{c.Type, c.Value}
	if r, ok := d.read[key]; ok {
		return r.Atoms, r.cells
	}
	val, ok := gaa.ResolveValue(c.Value, d.values)
	a, err := conditions.AtomsOf(c.Type, val)
	r := atoms{Atoms: a, cells: ok && err == nil}
	if !r.cells {
		r.Atoms = conditions.Atoms{Axis: a.Axis, Ambient: a.Ambient}
	}
	d.read[key] = r
	return r.Atoms, r.cells
}

// lang is a language beside its matcher and the number the searches
// know it by.
type lang struct {
	eacl.Language
	match func(string) bool
	id    int
}

func (d *domain) newLang(l eacl.Language) *lang {
	var res []*regexp.Regexp
	for _, e := range l.Exprs {
		res = append(res, regexp.MustCompile(e))
	}
	return &lang{Language: l, id: len(d.langs) + 1, match: func(s string) bool {
		return slices.ContainsFunc(l.Globs, func(g string) bool { return eacl.Glob(g, s) }) ||
			slices.ContainsFunc(res, func(re *regexp.Regexp) bool { return re.MatchString(s) })
	}}
}

// glob returns the language of one '*'-glob.
func (d *domain) glob(g string) *lang {
	l, ok := d.langs[g]
	if !ok {
		l = d.newLang(eacl.Language{Globs: []string{g}})
		d.langs[g] = l
	}
	return l
}

// condLang returns the language of a list condition's globs and
// expressions.
func (d *domain) condLang(c eacl.Condition, a conditions.Atoms) *lang {
	key := "\x00" + c.Type + "\x00" + c.Value
	if _, ok := d.langs[key]; !ok {
		d.langs[key] = d.newLang(eacl.Language{Globs: a.Globs, Exprs: a.Exprs})
	}
	return d.langs[key]
}

// strAxis is a cube's extent on a string axis: the languages its
// strings are in and those they avoid, and one string of them.
type strAxis struct {
	in, out []*lang
	w       string
}

// narrow returns the axis with l added to in (inside) or out, and false
// when no string is left. The witness stays while the axis holds it.
func (d *domain) narrow(s strAxis, l *lang, inside bool, preferred string) (strAxis, bool) {
	switch {
	case slices.Contains(s.in, l):
		return s, inside
	case slices.Contains(s.out, l):
		return s, !inside
	case inside:
		s.in = append(slices.Clip(s.in), l)
	default:
		s.out = append(slices.Clip(s.out), l)
	}
	if l.match(s.w) == inside { // the rest held already
		return s, true
	}
	return d.pick(s, preferred)
}

// pick gives s a witness and reports whether it holds a string: the
// preferred one, or the shortest string of the in languages alone, where
// s holds them; else the search's. Where the search gives up, it cannot
// tell: s is dropped and the domain left incomplete.
func (d *domain) pick(s strAxis, preferred string) (strAxis, bool) {
	f := d.search(s.in, nil)
	switch {
	case f.err == nil && !f.ok:
		return s, false
	case s.holds(preferred):
		s.w = preferred
		return s, true
	case s.holds(f.w):
		s.w = f.w
		return s, true
	case f.err == nil:
		f = d.search(s.in, s.out)
	}
	if f.err != nil {
		d.short(f.err.Error())
	}
	s.w = f.w
	return s, f.ok
}

// found is one search's answer.
type found struct {
	w   string
	ok  bool
	err error
}

// search asks eacl.Witness for a string in every language of in and in
// none of out, once per pair of language sets on an engine.
func (d *domain) search(in, out []*lang) found {
	var b []byte
	for _, side := range [][]*lang{in, out} {
		ids := make([]int, len(side))
		for i, l := range side {
			ids[i] = l.id
		}
		slices.Sort(ids)
		for _, id := range ids {
			b = strconv.AppendInt(b, int64(id), 10)
			b = append(b, ',')
		}
		b = append(b, '|')
	}
	key := string(b)
	f, ok := d.found[key]
	if !ok {
		langs := func(side []*lang) []eacl.Language {
			out := make([]eacl.Language, len(side))
			for i, l := range side {
				out[i] = l.Language
			}
			return out
		}
		f.w, f.ok, f.err = eacl.Witness(langs(in), langs(out))
		d.found[key] = f
	}
	if errors.Is(f.err, eacl.ErrSearchBudget) && !slices.Contains(d.over, key) {
		d.over = append(d.over, key)
		d.spend(maxCubes / 8) // once a walk: an eighth of its budget
	}
	return f
}

func (s strAxis) holds(w string) bool {
	return !slices.ContainsFunc(s.in, func(l *lang) bool { return !l.match(w) }) &&
		!slices.ContainsFunc(s.out, func(l *lang) bool { return l.match(w) })
}

// intAxis is a cube's extent on one integer parameter: free (no cell
// read yet), absent, or the values lo..hi.
type intAxis struct {
	state  int8 // 0 free, 1 absent, 2 present
	lo, hi int64
}

const minutesPerWeek = 7 * 24 * 60

// cube is a region of the request space.
type cube struct {
	threat  ids.Level
	right   [2]strAxis // the requested right's defining authority and value
	user    strAxis    // "" for the anonymous client
	member  []int8     // per domain.groups: 0 free, 1 member, -1 not
	addr    strAxis
	line    strAxis
	minutes []bool // nil: every minute of the week
	minute  int    // the witness minute
	ints    []intAxis
}

// root is the cube of every request at one threat level.
func (d *domain) root(level ids.Level) *cube {
	return &cube{
		threat: level,
		member: make([]int8, len(d.groups)),
		addr:   strAxis{out: []*lang{empty}, w: defaultIP},
		line:   strAxis{w: defaultLine},
		minute: baseMinute(),
		ints:   make([]intAxis, len(d.intDims)),
	}
}

// baseMinute is baseTime's minute of the week.
func baseMinute() int { return baseTime.Hour()*60 + baseTime.Minute() }

// clone copies the cube so a piece can narrow it.
func (k *cube) clone() *cube {
	c := *k
	c.member = slices.Clone(k.member)
	c.ints = slices.Clone(k.ints)
	return &c
}

// with returns a copy of k that set narrows.
func (k *cube) with(set func(p *cube)) *cube {
	p := k.clone()
	set(p)
	return p
}

// rightPieces cuts k by an entry's right pattern: the piece it matches,
// first, and the two it does not (another authority; the authority but
// another value). Empty pieces are left out; match is nil when empty.
func (d *domain) rightPieces(k *cube, p eacl.Right) (match *cube, miss []*cube) {
	auth, value := d.glob(p.DefAuth), d.glob(p.Value)
	if a, ok := d.narrow(k.right[0], auth, false, ""); ok {
		miss = append(miss, k.withRight(a, k.right[1]))
	}
	if a, ok := d.narrow(k.right[0], auth, true, ""); ok {
		if v, ok := d.narrow(k.right[1], value, false, ""); ok {
			miss = append(miss, k.withRight(a, v))
		}
		if v, ok := d.narrow(k.right[1], value, true, ""); ok {
			match = k.withRight(a, v)
		}
	}
	return match, miss
}

// withRight returns k with right axes a and v: k itself when narrowing
// left them as they were (cubes are not changed once made).
func (k *cube) withRight(a, v strAxis) *cube {
	same := func(x, y strAxis) bool { return len(x.in) == len(y.in) && len(x.out) == len(y.out) && x.w == y.w }
	if same(a, k.right[0]) && same(v, k.right[1]) {
		return k
	}
	c := k.clone()
	c.right[0], c.right[1] = a, v
	return c
}

// cells cuts k into the pieces on which condition c reads one cell of
// its atoms, or returns nil when it reads the same cell on all of k. A
// piece dropped for want of an answer is no empty one: then the pieces
// left are returned, even one or none.
func (d *domain) cells(c eacl.Condition, k *cube) []*cube {
	a, ok := d.atoms(c)
	if !ok {
		return nil
	}
	out, shorts := []*cube{}, d.shorts
	add := func(c *cube) { out = append(out, c) }
	switch a.Axis {
	case conditions.AxisUser:
		// The empty user is the anonymous client, whom no list admits.
		if u, ok := d.narrow(k.user, empty, true, ""); ok {
			add(k.with(func(p *cube) { p.user = u }))
		}
		if auth, ok := d.narrow(k.user, empty, false, defaultUser); ok {
			for _, inside := range []bool{true, false} {
				if u, ok := d.narrow(auth, d.condLang(c, a), inside, defaultUser); ok {
					add(k.with(func(p *cube) { p.user = u }))
				}
			}
		}
	case conditions.AxisGroup:
		g, _ := slices.BinarySearch(d.groups, a.Group)
		for _, bit := range []int8{1, -1} {
			if k.member[g] != -bit {
				add(k.with(func(p *cube) { p.member[g] = bit }))
			}
		}
	case conditions.AxisAddress, conditions.AxisLine:
		at, preferred := func(p *cube) *strAxis { return &p.line }, defaultLine
		if a.Axis == conditions.AxisAddress {
			at, preferred = func(p *cube) *strAxis { return &p.addr }, defaultIP
		}
		for _, inside := range []bool{true, false} {
			if s, ok := d.narrow(*at(k), d.condLang(c, a), inside, preferred); ok {
				add(k.with(func(p *cube) { *at(p) = s }))
			}
		}
	case conditions.AxisTime:
		for _, inside := range []bool{true, false} {
			if piece := k.window(a.Window, inside); piece != nil {
				add(piece)
			}
		}
	case conditions.AxisInt:
		i, _ := slices.BinarySearch(d.intDims, a.Param)
		for _, cell := range intCells(a.Op, a.Bound) {
			if piece := k.narrowInt(i, cell); piece != nil {
				add(piece)
			}
		}
	}
	if len(out) < 2 && d.shorts == shorts {
		return nil
	}
	return out
}

// window returns the piece of k inside (or outside) a time window, nil
// when it is empty. Minute m of the week is on baseTime's Monday plus
// m/1440 days.
func (k *cube) window(w conditions.TimeWindow, inside bool) *cube {
	mins := make([]bool, minutesPerWeek)
	first, keep := -1, false
	for m := range mins {
		day := (baseTime.Weekday() + time.Weekday(m/1440)) % 7
		cur := m % 1440
		in := w.Days[day] && (w.Start <= w.End && cur >= w.Start && cur < w.End ||
			w.Start > w.End && (cur >= w.Start || cur < w.End))
		mins[m] = in == inside && (k.minutes == nil || k.minutes[m])
		if mins[m] {
			if first < 0 {
				first = m
			}
			keep = keep || m == k.minute
		}
	}
	if first < 0 {
		return nil
	}
	piece := k.clone()
	piece.minutes = mins
	if !keep {
		piece.minute = first
		if mins[baseMinute()] {
			piece.minute = baseMinute()
		}
	}
	return piece
}

// intCells are the cells a comparison cuts its parameter into: absent,
// and the intervals on which it holds or fails — one each side of the
// bound for an order, below, at and above it for (in)equality.
func intCells(op string, bound int64) []intAxis {
	cells := []intAxis{{state: 1}}
	add := func(lo, hi int64) { cells = append(cells, intAxis{state: 2, lo: lo, hi: hi}) }
	lower := bound > math.MinInt64 // a value below the bound exists
	upper := bound < math.MaxInt64 // and one above it
	switch op {
	case "<", ">=":
		if lower {
			add(math.MinInt64, bound-1)
		}
		add(bound, math.MaxInt64)
	case "<=", ">":
		add(math.MinInt64, bound)
		if upper {
			add(bound+1, math.MaxInt64)
		}
	default:
		if lower {
			add(math.MinInt64, bound-1)
		}
		add(bound, bound)
		if upper {
			add(bound+1, math.MaxInt64)
		}
	}
	return cells
}

// narrowInt returns the piece of k in cell of parameter i, nil when it
// is empty.
func (k *cube) narrowInt(i int, cell intAxis) *cube {
	cur := k.ints[i]
	switch {
	case cur.state == 0:
	case cur.state != cell.state:
		return nil
	case cell.state == 2:
		cell.lo, cell.hi = max(cell.lo, cur.lo), min(cell.hi, cur.hi)
		if cell.lo > cell.hi {
			return nil
		}
	}
	piece := k.clone()
	piece.ints[i] = cell
	return piece
}

// witness is the cube's witness request.
func (d *domain) witness(k *cube) world {
	w := world{
		right:  eacl.Right{Sign: eacl.Pos, DefAuth: k.right[0].w, Value: k.right[1].w},
		threat: k.threat,
		user:   k.user.w,
		member: make([]bool, len(d.groups)),
		ip:     k.addr.w,
		uri:    k.line.w,
		at:     baseTime.Truncate(24 * time.Hour).Add(time.Duration(k.minute) * time.Minute),
		ints:   make([]intChoice, len(d.intDims)),
	}
	for g, bit := range k.member {
		w.member[g] = bit > 0
	}
	for i, c := range k.ints {
		if c.state == 2 {
			v := min(max(0, c.lo), c.hi)
			w.ints[i] = intChoice{val: v, present: true}
		}
	}
	return w
}

// request synthesizes the world's request.
func (d *domain) request(w *world) *gaa.Request {
	params := gaa.ParamList{
		{Type: gaa.ParamClientIP, Authority: gaa.AuthorityAny, Value: w.ip},
		{Type: gaa.ParamRequestURI, Authority: gaa.AuthorityAny, Value: w.uri},
	}
	if w.user != "" {
		params = append(params, gaa.Param{Type: gaa.ParamUser, Authority: gaa.AuthorityAny, Value: w.user})
	}
	for i, c := range w.ints {
		if c.present {
			params = append(params, gaa.Param{
				Type: d.intDims[i], Authority: gaa.AuthorityAny,
				Value: strconv.FormatInt(c.val, 10),
			})
		}
	}
	return &gaa.Request{Rights: []eacl.Right{w.right}, Params: params, Time: w.at}
}

// RegisterVocabulary registers on api the vocabulary the static tools
// read policies against: every built-in condition over deps, and a YES
// stub under each built-in action's name — evaluation at lint time must
// stay pure, but the actions have to be registered so request-result
// blocks don't degrade to MAYBE. The reasoner's worlds and cmd/eaclint's
// default vocabulary are both this one.
func RegisterVocabulary(api *gaa.API, deps conditions.Deps) {
	conditions.Register(api, deps)
	for _, name := range actions.Names() {
		api.RegisterFunc(name, gaa.AuthorityAny, func(context.Context, eacl.Condition, *gaa.Request) gaa.Outcome {
			return gaa.MetOutcome(gaa.ClassAction, "stubbed for analysis")
		})
	}
}

// worldEnv is an engine's one evaluation environment: an API with the
// built-in evaluators, an IDS manager, a group store and a clock, reset
// to each world in turn, so every EACL compiles once per engine.
type worldEnv struct {
	api    *gaa.API
	threat *ids.Manager
	groups *groups.Store
	at     time.Time
	joined [][2]string // the current world's (group, member) pairs
	req    *gaa.Request
}

func newWorldEnv(values mapValues) *worldEnv {
	env := &worldEnv{threat: ids.NewManager(ids.Low), groups: groups.NewStore()}
	env.api = gaa.New(gaa.WithClock(func() time.Time { return env.at }), gaa.WithValues(values))
	RegisterVocabulary(env.api, conditions.Deps{Threat: env.threat, Groups: env.groups})
	return env
}

// enter resets the environment to world w: the threat level, exactly
// the world's group memberships, the clock and the request.
func (env *worldEnv) enter(d *domain, w *world) {
	env.threat.Set(w.threat)
	for _, m := range env.joined {
		env.groups.Remove(m[0], m[1])
	}
	env.joined = env.joined[:0]
	key := w.user
	if key == "" {
		key = w.ip
	}
	for gi, g := range d.groups {
		if w.member[gi] {
			env.groups.Add(g, key)
			env.joined = append(env.joined, [2]string{g, key})
		}
	}
	env.at = w.at
	env.req = d.request(w)
}

// mapValues serves Options.Values as the engine's gaa.ValueProvider,
// so the atoms and the evaluators resolve '@name' references by the
// one definition of the syntax.
type mapValues map[string]string

func (m mapValues) LookupValue(name string) (string, bool) {
	v, ok := m[name]
	return v, ok
}

// sorted returns m's keys in cmp's order.
func sorted[K comparable, V any](m map[K]V, cmp func(a, b K) int) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, cmp)
	return out
}
