package reason

import (
	"context"
	"net"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
)

// The abstract domain is a finite grid of concrete candidate values,
// one axis per request dimension the registered evaluators consult.
// Every candidate is synthesized from the policy's own text (glob
// witnesses, CIDR interior points, time-window boundaries, comparison
// bounds), so per-world truth is computed exactly — by running the real
// evaluators against the candidate — and the only incompleteness is
// coverage: behaviours reachable solely outside the candidate grid
// (e.g. a request line only an "re:" regular expression accepts) are
// not represented, and the engine tracks that (see DESIGN.md §5.2).

// Dimension caps keep the world grid bounded; exceeding one sets
// Domain.Truncated, which downgrades universal claims to "unknown".
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

	values     map[string]string // '@name' runtime values (Options.Values)
	truncated  bool
	hasRegex   bool // some pre_cond_regex carries an "re:" pattern
	noCleanURI bool // no candidate URI dodges every URI pattern
}

// incomplete reports whether the grid is known not to cover the
// policy's behaviours, downgrading universal claims to "unknown".
func (d *domain) incomplete() bool { return d.truncated || d.noCleanURI }

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
// candidates per dimension.
func buildDomain(eacls []*eacl.EACL, opts Options) *domain {
	d := &domain{
		threats: []ids.Level{ids.Low, ids.Medium, ids.High},
		values:  opts.Values,
	}
	var (
		rightSet    = map[eacl.Right]bool{}
		userSet     = map[string]bool{}
		groupSet    = map[string]bool{}
		ipSet       = map[string]bool{}
		uriSet      = map[string]bool{}
		timeSet     = map[time.Time]bool{}
		intSet      = map[string]map[int64]bool{}
		patterns    []eacl.Right // entry right patterns, for intersections
		uriPatterns []string     // every regex pattern, for clean-URI vetting
	)
	addRight := func(r eacl.Right) {
		r.Sign = eacl.Pos
		if !rightSet[r] {
			rightSet[r] = true
		}
	}
	for _, e := range eacls {
		for i := range e.Entries {
			en := &e.Entries[i]
			patterns = append(patterns, en.Right)
			addRight(eacl.Right{DefAuth: globWitness(en.Right.DefAuth), Value: globWitness(en.Right.Value)})
			for _, c := range en.Conditions {
				if c.Block != eacl.BlockPre {
					continue
				}
				val, ok := gaa.ResolveValue(c.Value, mapValues(d.values))
				if !ok {
					continue // stays MAYBE at run time; no candidates
				}
				switch c.Type {
				case "accessid_USER":
					for _, p := range strings.Fields(val) {
						w := globWitness(p)
						if w == "" {
							w = "user" // "*" needs a non-empty witness to count as authenticated
						}
						userSet[w] = true
					}
				case "accessid_GROUP":
					if g := strings.TrimSpace(val); g != "" {
						groupSet[g] = true
					}
				case "accessid_HOST":
					for _, p := range strings.Fields(val) {
						ipSet[globWitness(p)] = true
					}
				case "location":
					for _, p := range strings.Fields(val) {
						if strings.Contains(p, "/") {
							if ip, ipnet, err := net.ParseCIDR(p); err == nil {
								inside := ip.Mask(ipnet.Mask)
								ipSet[inside.String()] = true
							}
						} else {
							ipSet[globWitness(p)] = true
						}
					}
				case "regex", "signature":
					for _, p := range strings.Fields(val) {
						uriPatterns = append(uriPatterns, p)
						if strings.HasPrefix(p, "re:") {
							d.hasRegex = true
							continue
						}
						uriSet[globWitness(p)] = true
					}
				case "time_window":
					if w, err := conditions.ParseTimeWindowSpec(val); err == nil {
						for _, at := range windowInstants(w) {
							timeSet[at] = true
						}
					}
				case "expr", "quota":
					left, _, k, err := conditions.SplitComparison(val)
					if err != nil {
						continue
					}
					if intSet[left] == nil {
						intSet[left] = map[int64]bool{}
					}
					intSet[left][k-1] = true
					intSet[left][k] = true
					intSet[left][k+1] = true
				}
			}
		}
	}
	// Query rights may themselves be glob patterns: their witnesses join
	// the grid and they participate in the intersection pass below, so a
	// query pattern can exercise entries its plain witness would miss.
	for _, r := range opts.ExtraRights {
		patterns = append(patterns, r)
		addRight(eacl.Right{DefAuth: globWitness(r.DefAuth), Value: globWitness(r.Value)})
	}
	// Pairwise intersection witnesses let one requested right exercise
	// two entries whose patterns overlap without either's own witness
	// matching both (e.g. "*phf*" vs "GET *" -> "GET phf").
	for i := 0; i < len(patterns); i++ {
		for j := i + 1; j < len(patterns); j++ {
			da, okA := globIntersectWitness(patterns[i].DefAuth, patterns[j].DefAuth)
			va, okV := globIntersectWitness(patterns[i].Value, patterns[j].Value)
			if okA && okV {
				addRight(eacl.Right{DefAuth: da, Value: va})
			}
		}
	}
	d.rights = capSlice(sortedRights(rightSet), maxRightCands, &d.truncated)
	d.users = append([]string{""}, capSlice(sortedKeys(userSet), maxUserCands-1, &d.truncated)...)
	d.groups = capSlice(sortedKeys(groupSet), maxGroupDims, &d.truncated)
	// An address outside every listed range/pattern keeps the "no
	// location matches" world representable.
	d.ips = capSlice(sortedKeys(ipSet), maxIPCands-1, &d.truncated)
	d.ips = append(d.ips, pickOutsideIP(d.ips))
	// A "clean" URI no pattern matches keeps the request-passes-no-
	// signature worlds representable — the URI analogue of the outside
	// IP. Candidates are vetted against every pattern, including
	// compiled "re:" regexes; when the policy's patterns cover the whole
	// pool the grid is incomplete and universal claims degrade.
	d.uris = capSlice(sortedKeys(uriSet), maxURICands-1, &d.truncated)
	if clean, ok := cleanURI(uriPatterns); ok {
		d.uris = append(d.uris, clean)
	} else {
		d.noCleanURI = true
	}
	d.times = capSlice(sortedTimes(timeSet), maxTimeCands-1, &d.truncated)
	d.times = append(d.times, baseTime)
	intNames := capSlice(sortedKeys(keysOf(intSet)), maxIntDims, &d.truncated)
	d.intDims = intNames
	for _, name := range intNames {
		vals := sortedInts(intSet[name])
		if len(vals) > maxIntCands-1 {
			vals = vals[:maxIntCands-1]
			d.truncated = true
		}
		cands := []intChoice{{present: false}}
		for _, v := range vals {
			cands = append(cands, intChoice{val: v, present: true})
		}
		d.intCand = append(d.intCand, cands)
	}
	if len(d.rights) == 0 {
		d.rights = []eacl.Right{{DefAuth: "apache", Value: "GET /"}}
	}
	return d
}

// worldCount returns the grid size (before the MaxWorlds cap).
func (d *domain) worldCount() int {
	n := len(d.rights) * len(d.threats) * len(d.users) * len(d.ips) * len(d.uris) * len(d.times)
	n *= 1 << len(d.groups)
	for _, c := range d.intCand {
		n *= len(c)
	}
	return n
}

// worlds enumerates the grid in a fixed order, stopping at max and
// recording truncation.
func (d *domain) worlds(max int) []world {
	var out []world
	count := d.worldCount()
	if count > max {
		d.truncated = true
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

// worldEnv is the concrete realization of one world: a frozen clock,
// an IDS manager pinned at the world's threat level, a group store
// holding exactly the world's memberships, and the synthesized request.
type worldEnv struct {
	api *gaa.API
	req *gaa.Request
}

// ActionStubNames is the response-action vocabulary stubbed to YES
// during analysis — evaluation must stay pure, but the types have to
// be "registered" so request-result blocks don't degrade to MAYBE.
// cmd/eaclint registers the same list.
var ActionStubNames = []string{"notify", "update_log", "audit", "set_threat_level", "block_ip", "count"}

func stubAction(context.Context, eacl.Condition, *gaa.Request) gaa.Outcome {
	return gaa.MetOutcome(gaa.ClassAction, "stubbed for analysis")
}

// env builds the world's evaluation environment.
func (d *domain) env(w *world) *worldEnv {
	mgr := ids.NewManager(w.threat)
	store := groups.NewStore()
	key := w.user
	if key == "" {
		key = w.ip
	}
	for gi, g := range d.groups {
		if w.member[gi] {
			store.Add(g, key)
		}
	}
	deps := conditions.Deps{Threat: mgr, Groups: store}
	at := w.at
	api := gaa.New(gaa.WithClock(func() time.Time { return at }), gaa.WithValues(mapValues(d.values)))
	conditions.Register(api, deps)
	for _, name := range ActionStubNames {
		api.RegisterFunc(name, gaa.AuthorityAny, stubAction)
	}
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
	req := &gaa.Request{
		Rights: []eacl.Right{w.right},
		Params: params,
		Time:   at,
	}
	return &worldEnv{api: api, req: req}
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
// one no policy pattern matches becomes the clean URI.
var cleanURIPool = []string{"GET /index.html", "/nomatch", "HEAD /healthz", "zz"}

// cleanURI returns a request line matched by none of the patterns.
func cleanURI(patterns []string) (string, bool) {
	for _, cand := range cleanURIPool {
		clean := true
		for _, p := range patterns {
			if matchURIPattern(p, cand) {
				clean = false
				break
			}
		}
		if clean {
			return cand, true
		}
	}
	return "", false
}

// matchURIPattern mirrors the regex evaluator's matching: "re:" is a Go
// regexp (uncompilable patterns yield MAYBE at run time, never a
// match), anything else a '*'-glob.
func matchURIPattern(p, uri string) bool {
	if expr, isRe := strings.CutPrefix(p, "re:"); isRe {
		re, err := regexp.Compile(expr)
		if err != nil {
			return false
		}
		return re.MatchString(uri)
	}
	return eacl.Glob(p, uri)
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

func capSlice[T any](s []T, max int, truncated *bool) []T {
	if len(s) > max {
		*truncated = true
		return s[:max]
	}
	return s
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func keysOf[V any](m map[string]V) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func sortedInts(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedRights(m map[eacl.Right]bool) []eacl.Right {
	out := make([]eacl.Right, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DefAuth != out[j].DefAuth {
			return out[i].DefAuth < out[j].DefAuth
		}
		return out[i].Value < out[j].Value
	})
	return out
}

func sortedTimes(m map[time.Time]bool) []time.Time {
	out := make([]time.Time, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}
