package reason

import (
	"fmt"
	"sort"
	"strings"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/ids"
)

// The query language, one call per query string:
//
//	who-can(<defauth>, <value-pattern>[, <threat>])
//	    principals that obtain a composed YES on a right the pattern
//	    matches, optionally pinned to one threat level
//	reachable-without(<condition-type>)
//	    a composed YES in which no condition of that type contributed a
//	    YES on any deciding entry
//	grant-differs()
//	    worlds where the composed decision differs from the system-only
//	    projection (requires Options.SystemOnly)
//
// Arguments are comma-separated and whitespace-trimmed; right patterns
// use the EACL '*' glob language and therefore cannot contain commas.

// Query is one parsed query.
type Query struct {
	Kind      string // "who-can", "reachable-without", "grant-differs"
	Right     eacl.Right
	Threat    ids.Level
	HasThreat bool
	CondType  string
	raw       string
}

func (q *Query) String() string { return q.raw }

// ParseQuery parses the textual query form.
func ParseQuery(s string) (*Query, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(strings.TrimSpace(s), ")") {
		return nil, fmt.Errorf("query %q: want name(args...)", s)
	}
	name := strings.TrimSpace(s[:open])
	inner := strings.TrimSpace(s)
	inner = inner[open+1 : len(inner)-1]
	var args []string
	if strings.TrimSpace(inner) != "" {
		for _, a := range strings.Split(inner, ",") {
			args = append(args, strings.TrimSpace(a))
		}
	}
	q := &Query{Kind: name, raw: strings.TrimSpace(s)}
	switch name {
	case "who-can":
		if len(args) < 2 || len(args) > 3 {
			return nil, fmt.Errorf("query %q: want who-can(defauth, value[, threat])", s)
		}
		q.Right = eacl.Right{Sign: eacl.Pos, DefAuth: args[0], Value: args[1]}
		if len(args) == 3 {
			lvl, err := ids.ParseLevel(args[2])
			if err != nil {
				return nil, fmt.Errorf("query %q: %v", s, err)
			}
			q.Threat, q.HasThreat = lvl, true
		}
	case "reachable-without":
		if len(args) != 1 || args[0] == "" {
			return nil, fmt.Errorf("query %q: want reachable-without(condition-type)", s)
		}
		q.CondType = args[0]
	case "grant-differs":
		if len(args) != 0 {
			return nil, fmt.Errorf("query %q: grant-differs takes no arguments", s)
		}
	default:
		return nil, fmt.Errorf("query %q: unknown query %q", s, name)
	}
	return q, nil
}

// ExtraRights returns the rights that must cut the domain for this
// query (the who-can pattern), so its regions lie inside or outside it.
func (q *Query) ExtraRights() []eacl.Right {
	if q.Kind == "who-can" {
		return []eacl.Right{q.Right}
	}
	return nil
}

// NeedsSystemOnly reports whether the query requires the system-only
// projection (Options.SystemOnly).
func (q *Query) NeedsSystemOnly() bool { return q.Kind == "grant-differs" }

// Witness is one concrete request plus the replay-confirmed verdicts —
// the counterexample/evidence format of every positive answer.
type Witness struct {
	Right      string            `json:"right"`
	Threat     string            `json:"threat"`
	User       string            `json:"user"` // "" = anonymous
	Groups     []string          `json:"groups,omitempty"`
	ClientIP   string            `json:"client_ip"`
	RequestURI string            `json:"request_uri"`
	Time       string            `json:"time"`
	Params     map[string]string `json:"params,omitempty"`
	Decision   string            `json:"decision"`
	Challenge  string            `json:"challenge,omitempty"`
	SystemOnly string            `json:"system_only_decision,omitempty"`
	Inexact    bool              `json:"inexact,omitempty"`
}

// QueryResult is the JSON answer to one query.
type QueryResult struct {
	Query       string    `json:"query"`
	Satisfiable bool      `json:"satisfiable"`
	Truncated   bool      `json:"truncated,omitempty"` // "no" answers may be incomplete
	Principals  []string  `json:"principals,omitempty"`
	Witnesses   []Witness `json:"witnesses,omitempty"`
	Worlds      int       `json:"worlds"`
}

const maxWitnesses = 10

// Answer evaluates a query against the engine's fixpoint.
func (e *Engine) Answer(q *Query) (*QueryResult, error) {
	res := &QueryResult{Query: q.String(), Truncated: e.dom.incomplete(), Worlds: len(e.results)}
	principals := map[string]bool{}
	add := func(r *worldResult, sysOnly bool) {
		res.Satisfiable = true
		if len(res.Witnesses) < maxWitnesses {
			res.Witnesses = append(res.Witnesses, e.witness(r, sysOnly))
		}
	}
	for i := range e.results {
		r := &e.results[i]
		if r.inexact {
			continue // ambient state; never evidence for a positive answer
		}
		switch q.Kind {
		case "who-can":
			if r.composed.Decision != gaa.Yes || !eacl.MatchRight(q.Right, r.w.right) {
				continue
			}
			if q.HasThreat && r.w.threat != q.Threat {
				continue
			}
			p := r.w.user
			if p == "" {
				p = "<anonymous>"
			}
			if !principals[p] {
				principals[p] = true
				add(r, false)
			}
		case "reachable-without":
			if r.composed.Decision == gaa.Yes && !r.deciderYes[q.CondType] {
				add(r, false)
			}
		case "grant-differs":
			if !e.opts.SystemOnly {
				return nil, fmt.Errorf("grant-differs requires the system-only projection (Options.SystemOnly)")
			}
			if r.composed.Decision != r.sysOnly.Decision {
				add(r, true)
			}
		}
	}
	res.Principals = make([]string, 0, len(principals))
	for p := range principals {
		res.Principals = append(res.Principals, p)
	}
	sort.Strings(res.Principals)
	return res, nil
}

// witness renders one world's record.
func (e *Engine) witness(r *worldResult, sysOnly bool) Witness {
	w := &r.w
	wit := Witness{
		Right:      w.right.DefAuth + " " + w.right.Value,
		Threat:     w.threat.String(),
		User:       w.user,
		ClientIP:   w.ip,
		RequestURI: w.uri,
		Time:       w.at.Format("2006-01-02T15:04:05Z07:00"),
		Decision:   r.composed.Decision.String(),
		Challenge:  r.composed.Challenge,
		Inexact:    r.inexact,
	}
	for gi, g := range e.dom.groups {
		if w.member[gi] {
			wit.Groups = append(wit.Groups, g)
		}
	}
	for i, c := range w.ints {
		if c.present {
			if wit.Params == nil {
				wit.Params = map[string]string{}
			}
			wit.Params[e.dom.intDims[i]] = fmt.Sprintf("%d", c.val)
		}
	}
	if sysOnly {
		wit.SystemOnly = r.sysOnly.Decision.String()
	}
	return wit
}
