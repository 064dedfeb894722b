package reason

import (
	"cmp"
	"context"
	"fmt"
	"math"
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

// The abstract domain is a finite grid of concrete candidate values,
// one axis per request dimension the registered evaluators consult.
// Every candidate is synthesized from the policy's own text, as each
// condition's atoms (conditions.AtomsOf) cut it: glob witnesses, CIDR
// network addresses, time-window boundaries, comparison bounds. So
// per-world truth is computed exactly — by running the real
// evaluators against the candidate — and the only incompleteness is
// coverage: behaviours reachable solely outside the candidate grid
// (e.g. a request line only an "re:" regular expression accepts) are
// not represented, and the engine tracks that (see DESIGN.md §5.2).

// Dimension caps keep the world grid bounded; exceeding one records why
// the domain is incomplete, which downgrades universal claims to
// "unknown". The right axis is capped only when the full grid would
// exceed the world cap.
const (
	maxRightCands = 16
	maxURICands   = 16
	maxIPCands    = 8
	maxUserCands  = 6
	maxTimeCands  = 8
	maxIntCands   = 5
	maxGroupDims  = 4
	maxIntDims    = 4
)

// DefaultMaxWorlds bounds the world grid when Options.MaxWorlds is 0.
const DefaultMaxWorlds = 20000

// baseTime is the instant worlds default to: a Monday noon, fixed so
// answers and witnesses are reproducible. Time-window conditions add
// boundary instants around it.
var baseTime = time.Date(2026, time.January, 5, 12, 0, 0, 0, time.UTC)

// outsideIPs is the pool the domain draws "matches nothing" client
// addresses from (RFC 5737 / RFC 1918 test ranges).
var outsideIPs = []string{"203.0.113.77", "198.51.100.23", "192.0.2.19", "10.123.45.67"}

// intChoice is one candidate for an integer request parameter: a value,
// or the parameter being absent from the request.
type intChoice struct {
	val     int64
	present bool
}

// domain is the candidate grid derived from one composed policy.
type domain struct {
	rights  []eacl.Right // requested-right candidates (sign always Pos)
	threats []ids.Level
	users   []string // "" = anonymous
	groups  []string // group names; membership is a per-name bit
	ips     []string
	uris    []string
	times   []time.Time
	intDims []string      // parameter names for expr/quota conditions
	intCand [][]intChoice // candidates per intDims entry

	values mapValues // '@name' runtime values (Options.Values)
	// ambient holds the pre-condition types whose truth depends on state
	// outside the world (conditions.Atoms.Ambient): a world one of them
	// decides in is inexact.
	ambient map[string]bool
	// why says how the grid falls short of covering the policy; empty
	// when it covers it.
	why string
	// own marks a grid built from one entry (Unsatisfiable): no axis
	// is capped, compared integers are always present, and each window's
	// start and midnight join the time axis on every weekday.
	own bool
}

// incomplete reports whether the grid is known not to cover the
// policy's behaviours, downgrading universal claims to "unknown".
func (d *domain) incomplete() bool { return d.why != "" }

// world is one point of the grid.
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

// buildDomain scans every entry of the composed EACL list and collects
// candidates per dimension; maxWorlds decides whether the right axis
// must be capped.
func buildDomain(eacls []*eacl.EACL, opts Options, maxWorlds int, own bool) *domain {
	d := &domain{
		threats: []ids.Level{ids.Low, ids.Medium, ids.High},
		values:  mapValues(opts.Values),
		ambient: map[string]bool{},
		own:     own,
	}
	var (
		userSet  = map[string]bool{}
		groupSet = map[string]bool{}
		ipSet    = map[string]bool{}
		timeSet  = map[time.Time]bool{}
		intSet   = map[string]map[int64]bool{}
		// Distinct right patterns, for witnesses and intersections.
		patterns    []eacl.Right
		patternSeen = map[[2]string]bool{}
		// Distinct '*'-glob patterns of the user, host and request-line
		// axes, and one matcher per distinct request-line list.
		userPats  = map[string]bool{}
		hostPats  = map[string]bool{}
		linePats  = map[string]bool{}
		globPats  = [...]map[string]bool{conditions.AxisUser: userPats, conditions.AxisAddress: hostPats, conditions.AxisLine: linePats}
		lineSeen  = map[string]bool{}
		lineMatch []func(string) bool
	)
	addPattern := func(r eacl.Right) {
		if k := [2]string{r.DefAuth, r.Value}; !patternSeen[k] {
			patternSeen[k] = true
			patterns = append(patterns, r)
		}
	}
	for _, e := range eacls {
		for i := range e.Entries {
			en := &e.Entries[i]
			addPattern(en.Right)
			for _, c := range en.Conditions {
				if c.Block != eacl.BlockPre {
					continue
				}
				a, cells := d.atoms(c)
				if a.Ambient {
					d.ambient[c.Type] = true
				}
				if !cells {
					continue // MAYBE for every request: no candidates
				}
				for _, g := range a.Globs {
					globPats[a.Axis][g] = true
				}
				for _, n := range a.Nets {
					ipSet[n.IP.String()] = true
				}
				if a.Group != "" {
					groupSet[a.Group] = true
				}
				if a.Match != nil && !lineSeen[c.Value] {
					lineSeen[c.Value] = true
					lineMatch = append(lineMatch, a.Match)
				}
				if a.Axis == conditions.AxisTime {
					for _, at := range windowInstants(a.Window) {
						timeSet[at] = true
					}
					for day := 0; own && day < 7; day++ {
						start := baseTime.AddDate(0, 0, day).Truncate(24 * time.Hour)
						timeSet[start] = true
						timeSet[start.Add(time.Duration(a.Window.Start)*time.Minute)] = true
					}
				}
				if a.Axis == conditions.AxisInt {
					if intSet[a.Param] == nil {
						intSet[a.Param] = map[int64]bool{}
					}
					intSet[a.Param][a.Bound-1] = true
					intSet[a.Param][a.Bound] = true
					intSet[a.Param][a.Bound+1] = true
				}
			}
		}
	}
	// Query rights may themselves be glob patterns: their witnesses join
	// the grid and they participate in the intersection pass below, so a
	// query pattern can exercise entries its plain witness would miss.
	for _, r := range opts.ExtraRights {
		addPattern(r)
	}
	text := append(append(sorted(userPats, strings.Compare), sorted(hostPats, strings.Compare)...), sorted(linePats, strings.Compare)...)
	for _, p := range patterns {
		text = append(text, p.DefAuth, p.Value)
	}
	fresh := freshByte(text)
	for _, w := range globWitnesses(sorted(userPats, strings.Compare), fresh) {
		if w == "" {
			w = "user" // "*" needs a non-empty witness to count as authenticated
		}
		userSet[w] = true
	}
	for _, w := range globWitnesses(sorted(hostPats, strings.Compare), fresh) {
		ipSet[w] = true
	}
	uriSet := map[string]bool{}
	for _, w := range globWitnesses(sorted(linePats, strings.Compare), fresh) {
		uriSet[w] = true
	}

	rightSet := map[eacl.Right]bool{}
	addRight := func(defAuth, value string) {
		rightSet[eacl.Right{Sign: eacl.Pos, DefAuth: defAuth, Value: value}] = true
	}
	for _, p := range patterns {
		addRight(globWitness(p.DefAuth), globWitness(p.Value))
		// The open witness is matched only by patterns covering this one,
		// so an entry that some earlier pattern merely overlaps keeps a
		// right the earlier entry does not match.
		if strings.Contains(p.DefAuth+p.Value, "*") {
			addRight(openWitness(p.DefAuth, fresh), openWitness(p.Value, fresh))
		}
	}
	// Pairwise intersection witnesses let one requested right exercise
	// two entries whose patterns overlap without either's own witness
	// matching both (e.g. "*phf*" vs "GET *" -> "GET phf").
	for i := 0; i < len(patterns); i++ {
		for j := i + 1; j < len(patterns); j++ {
			da, okA := globIntersectWitness(patterns[i].DefAuth, patterns[j].DefAuth)
			va, okV := globIntersectWitness(patterns[i].Value, patterns[j].Value)
			if okA && okV {
				addRight(da, va)
			}
		}
	}
	d.users = append([]string{""}, capSlice(d, sorted(userSet, strings.Compare), maxUserCands-1, "user")...)
	d.groups = capSlice(d, sorted(groupSet, strings.Compare), maxGroupDims, "group")
	// An address outside every listed range/pattern keeps the "no
	// location matches" world representable.
	d.ips = capSlice(d, sorted(ipSet, strings.Compare), maxIPCands-1, "client address")
	d.ips = append(d.ips, pickOutsideIP(d.ips))
	// A "clean" request line no list matches keeps the request-passes-no-
	// signature worlds representable — the URI analogue of the outside
	// IP. Candidates are vetted by every list's own matcher, "re:"
	// expressions included; when the lists cover the whole pool the grid
	// is incomplete and universal claims degrade.
	d.uris = capSlice(d, sorted(uriSet, strings.Compare), maxURICands-1, "request line")
	if clean, ok := cleanURI(lineMatch); ok {
		d.uris = append(d.uris, clean)
	} else if d.why == "" {
		d.why = "no request line dodges every pre_cond_regex list"
	}
	d.times = capSlice(d, sorted(timeSet, time.Time.Compare), maxTimeCands-1, "time")
	d.times = append(d.times, baseTime)
	d.intDims = capSlice(d, sorted(intSet, strings.Compare), maxIntDims, "integer parameter")
	for _, name := range d.intDims {
		vals := capSlice(d, sorted(intSet[name], cmp.Compare[int64]), maxIntCands-1, name)
		cands := []intChoice{{present: false}}
		if own {
			cands = nil
		}
		for _, v := range vals {
			cands = append(cands, intChoice{val: v, present: true})
		}
		d.intCand = append(d.intCand, cands)
	}
	d.rights = sorted(rightSet, func(a, b eacl.Right) int {
		return cmp.Or(strings.Compare(a.DefAuth, b.DefAuth), strings.Compare(a.Value, b.Value))
	})
	if len(d.rights) == 0 {
		d.rights = []eacl.Right{{DefAuth: "apache", Value: "GET /"}}
	}
	if d.worldCount() > float64(maxWorlds) {
		d.rights = capSlice(d, d.rights, maxRightCands, "right")
	}
	return d
}

// atoms returns what pre-condition c reads: its axis always, and its
// cells when its value resolves and parses (cells); otherwise c is
// MAYBE for every request.
func (d *domain) atoms(c eacl.Condition) (a conditions.Atoms, cells bool) {
	val, ok := gaa.ResolveValue(c.Value, d.values)
	a, err := conditions.AtomsOf(c.Type, val)
	if !ok || err != nil {
		return conditions.Atoms{Axis: a.Axis, Ambient: a.Ambient}, false
	}
	return a, true
}

// capSlice bounds one axis, recording the first cap hit as the reason
// the domain is incomplete.
func capSlice[T any](d *domain, s []T, max int, axis string) []T {
	if len(s) <= max || d.own {
		return s
	}
	if d.why == "" {
		d.why = fmt.Sprintf("%d %s candidates exceed the cap of %d", len(s), axis, max)
	}
	return s[:max]
}

// worldCount returns the grid size (before the MaxWorlds cap), as a
// float so an uncapped grid cannot overflow it.
func (d *domain) worldCount() float64 {
	n := math.Ldexp(float64(len(d.rights)*len(d.threats)*len(d.users)*len(d.ips)*len(d.uris)*len(d.times)), len(d.groups))
	for _, c := range d.intCand {
		n *= float64(len(c))
	}
	return n
}

// worlds enumerates the grid in a fixed order, stopping at max and
// recording truncation. An uncapped grid past max enumerates nothing:
// its integer cross product alone may not fit in memory.
func (d *domain) worlds(max int) []world {
	var out []world
	if count := d.worldCount(); count > float64(max) {
		if d.why == "" {
			d.why = fmt.Sprintf("%.0f worlds exceed the cap of %d", count, max)
		}
		if d.own {
			return nil
		}
	}
	for ri := range d.rights {
		for ti := range d.threats {
			for ui := range d.users {
				for gi := 0; gi < 1<<len(d.groups); gi++ {
					for ii := range d.ips {
						for qi := range d.uris {
							for ci := range d.times {
								for _, ints := range d.intCombos() {
									if len(out) >= max {
										return out
									}
									member := make([]bool, len(d.groups))
									for b := range member {
										member[b] = gi&(1<<b) != 0
									}
									out = append(out, world{
										right:  d.rights[ri],
										threat: d.threats[ti],
										user:   d.users[ui],
										member: member,
										ip:     d.ips[ii],
										uri:    d.uris[qi],
										at:     d.times[ci],
										ints:   ints,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// intCombos enumerates the cross product of the integer dimensions.
func (d *domain) intCombos() [][]intChoice {
	combos := [][]intChoice{nil}
	for _, cands := range d.intCand {
		var next [][]intChoice
		for _, base := range combos {
			for _, c := range cands {
				row := append(append([]intChoice{}, base...), c)
				next = append(next, row)
			}
		}
		combos = next
	}
	return combos
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

// windowInstants derives boundary candidates from a time window: one
// instant just inside the start, one just before it (outside), and one
// at the exclusive end, each on an active weekday when one exists; plus
// an instant on an inactive weekday when the window excludes days.
func windowInstants(w conditions.TimeWindow) []time.Time {
	var out []time.Time
	onDelta, offDelta := -1, -1
	for delta := 0; delta < 7; delta++ {
		d := baseTime.AddDate(0, 0, delta)
		if w.Days[d.Weekday()] && onDelta < 0 {
			onDelta = delta
		}
		if !w.Days[d.Weekday()] && offDelta < 0 {
			offDelta = delta
		}
	}
	at := func(dayDelta int, minute int) time.Time {
		day := baseTime.AddDate(0, 0, dayDelta)
		return time.Date(day.Year(), day.Month(), day.Day(), 0, 0, 0, 0, time.UTC).
			Add(time.Duration(minute) * time.Minute)
	}
	if onDelta >= 0 {
		out = append(out, at(onDelta, w.Start))
		out = append(out, at(onDelta, (w.Start+24*60-1)%(24*60))) // minute before start
		out = append(out, at(onDelta, w.End%(24*60)))             // first excluded minute (non-wrapping)
	}
	if offDelta >= 0 {
		out = append(out, at(offDelta, w.Start))
	}
	return out
}

// mapValues serves Options.Values as the engine's gaa.ValueProvider,
// so candidate extraction and the per-world APIs resolve '@name'
// references by the one definition of the syntax.
type mapValues map[string]string

func (m mapValues) LookupValue(name string) (string, bool) {
	v, ok := m[name]
	return v, ok
}

// cleanURIPool holds request-line candidates tried in order; the first
// one no list matches becomes the clean URI.
var cleanURIPool = []string{"GET /index.html", "/nomatch", "HEAD /healthz", "zz"}

// cleanURI returns a request line no list matches.
func cleanURI(lists []func(string) bool) (string, bool) {
next:
	for _, cand := range cleanURIPool {
		for _, match := range lists {
			if match(cand) {
				continue next
			}
		}
		return cand, true
	}
	return "", false
}

// pickOutsideIP returns an address distinct from every candidate.
func pickOutsideIP(used []string) string {
	for _, ip := range outsideIPs {
		clash := false
		for _, u := range used {
			if u == ip {
				clash = true
				break
			}
		}
		if !clash {
			return ip
		}
	}
	return outsideIPs[0]
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
