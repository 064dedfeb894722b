package analysis

import (
	"fmt"
	"slices"
	"strings"

	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/eacl/reason"
	"gaaapi/internal/gaa"
)

// Layers 3 and 4: the prover's facts. Whether an entry can ever decide
// is defined once, by the whole-policy reasoning engine
// (internal/eacl/reason), which walks the first-match scan over regions
// cut from the policy text and replays a witness of each through the
// real evaluator; every question about a file walks on its one engine.
// These codes only present its facts. A dead entry is reported once,
// under the code its cause picks: E011, E012 or E013 when it is
// unsatisfiable; W002, W003 or W007 for a single shadowing entry that is
// a duplicate, unconditional, or conditional of the same sign; W020
// under stop; W022 otherwise. Universal claims need regions covering the
// policy; when a condition reads state outside the request, or the
// engine fails, a W022 says the analysis is unknown (at the entry for
// its own query, else on line 0), and the existential W021 and W023
// still report what they found.

// Composition is a composed policy set: system-wide EACLs first, local
// EACLs second, with the effective composition mode derived the same
// way the runtime derives it (paper section 2.1): expand is a
// disjunction, narrow (the default) a conjunction, and stop applies the
// system-wide policy alone.
type Composition struct {
	Mode   eacl.CompositionMode
	System []*eacl.EACL
	Local  []*eacl.EACL

	proved bool
	found  []finding
}

// NewComposition composes the policy set, taking its mode from
// gaa.NewPolicy.
func NewComposition(system, local []*eacl.EACL) *Composition {
	return &Composition{Mode: gaa.NewPolicy("", system, local).Mode, System: system, Local: local}
}

var (
	metaTimeContradiction = Meta{
		Code: "E011", Name: "time-contradiction", Severity: SeverityError,
		Summary: "the prover's unsatisfiable cause, narrowed to time windows: the entry's time windows alone never hold together",
		Fix:     "split the entry in two (EACL entries are disjunctive) or merge the windows",
	}
	metaThreatContradiction = Meta{
		Code: "E012", Name: "threat-contradiction", Severity: SeverityError,
		Summary: "the prover's unsatisfiable cause, narrowed to threat levels: the entry's threat-level conditions alone have no common satisfying level",
		Fix:     "keep one threat condition per entry; use separate entries for disjoint threat states",
	}
	metaUnsatisfiableEntry = Meta{
		Code: "E013", Name: "unsatisfiable-entry", Severity: SeverityError,
		Summary: "the prover's unsatisfiable cause otherwise: no request satisfies the entry's pre-conditions together, so it can never fire",
		Fix:     "split the entry in two (EACL entries are disjunctive) or drop the condition that excludes the others",
	}
	metaDuplicateEntry = Meta{
		Code: "W002", Name: "duplicate-entry", Severity: SeverityWarning,
		Summary: "an entry repeats the earlier entry that decides every request it would (same right, same conditions)",
		Fix:     "delete the duplicate; the first occurrence already decides",
	}
	metaUnreachableEntry = Meta{
		Code: "W003", Name: "unreachable-entry", Severity: SeverityWarning,
		Summary: "one earlier unconditional entry decides every request this entry would, so it can never fire",
		Fix:     "move the narrower entry first (entries are examined in order) or narrow the earlier right",
	}
	metaSubsumedEntry = Meta{
		Code: "W007", Name: "subsumed-entry", Severity: SeverityWarning,
		Summary: "one earlier conditional entry of the same sign decides every request this entry would, so the later entry never changes the decision",
		Fix:     "delete the narrower entry, or order it before the broader one if it must add conditions",
	}
	metaStopDeadLocal = Meta{
		Code: "W020", Name: "stop-dead-local", Severity: SeverityWarning,
		Summary: "the system-wide policy declares eacl_mode stop, so every local entry is dead (never evaluated)",
		Fix:     "delete the local policy, or change the system mode if local policies should participate",
	}
	metaExpandBypass = Meta{
		Code: "W021", Name: "expand-bypass", Severity: SeverityWarning,
		Summary: "under eacl_mode expand, the prover found a request a system-wide denial denies and this local grant grants, and the disjunction grants it",
		Fix:     "use eacl_mode narrow for mandatory system denials; expand lets local policies broaden rights",
	}
	metaNarrowDeadGrant = Meta{
		Code: "E020", Name: "narrow-dead-grant", Severity: SeverityError,
		Summary: "under eacl_mode narrow, a system-wide denial decides every request this local grant would grant, so the grant is never satisfiable",
		Fix:     "guard the system denial with a pre-condition the local grant excludes, or drop the dead grant",
	}
	metaProverDeadEntry = Meta{
		Code: "W022", Name: "prover-dead-entry", Severity: SeverityWarning,
		Summary: "the prover found no request, at any threat level, that this entry decides: several earlier entries share the work; a message saying \"unknown\" means the prover cannot tell, for this entry or, on line 0, for the file",
		Fix:     "reorder the entries, narrow the earlier entries' rights, or delete the dead entry",
	}
	metaProverAnonGrant = Meta{
		Code: "W023", Name: "prover-anonymous-grant", Severity: SeverityWarning,
		Summary: "an unauthenticated client can obtain this right even though another entry guards an overlapping right with pre_cond_accessid_USER",
		Fix:     "add pre_cond_accessid_USER to the granting entry, or order the authenticated entry after a narrower anonymous grant",
	}
)

// proverRule reports its code's share of the prover's findings at file
// scope, composition scope, or both.
type proverRule struct {
	meta          Meta
	file, compose bool
}

func (p proverRule) Meta() Meta { return p.meta }

func (p proverRule) CheckFile(f *File, r *Reporter) {
	if p.file {
		p.report(f.findings(), r)
	}
}

func (p proverRule) CheckComposition(c *Composition, r *Reporter) {
	if p.compose {
		p.report(c.findings(), r)
	}
}

func (p proverRule) report(found []finding, r *Reporter) {
	for _, x := range found {
		if x.code == p.meta.Code {
			r.Report(x.file, x.line, "%s", x.msg)
		}
	}
}

// finding is one presented fact.
type finding struct {
	code, file string
	line       int
	msg        string
}

// findings runs the prover over the file as a stand-alone local policy,
// once, on one engine. Each entry is asked there whether it can fire: one
// found unsatisfiable decides nothing, and one the query cannot settle
// gets only that note, so the file is proved without both (Walk).
func (f *File) findings() []finding {
	if f.proved {
		return f.found
	}
	f.proved = true
	eng, err := reason.New(nil, []*eacl.EACL{f.EACL}, reason.Options{})
	if err != nil {
		f.found = unknown(f.EACL.Source, eng, err)
		return f.found
	}
	reduced := &eacl.EACL{Source: f.EACL.Source}
	var live []int // reduced.Entries index -> f.EACL.Entries index
	for i, en := range f.EACL.Entries {
		switch core, why := eng.Unsatisfiable(en); {
		case core != nil:
			f.found = append(f.found, unsatFinding(eng, f.EACL.Source, en))
		case why != "":
			f.found = append(f.found, finding{code: "W022", file: f.EACL.Source, line: en.Line,
				msg: "prover: unknown whether this entry can fire: " + why})
		default:
			live, reduced.Entries = append(live, i), append(reduced.Entries, en)
		}
	}
	if len(live) < 2 {
		return f.found // shadowing takes two entries that can decide
	}
	if len(live) < len(f.EACL.Entries) {
		eng, err = eng.Walk(reduced)
	}
	if f.found = append(f.found, unknown(reduced.Source, eng, err)...); err != nil {
		return f.found
	}
	for _, d := range eng.DeadEntries() {
		d.Index, d.ShadowedBy = live[d.Index], slices.Clone(d.ShadowedBy) // the engine keeps its own
		for k, j := range d.ShadowedBy {
			d.ShadowedBy[k] = live[j]
		}
		f.found = append(f.found, deadFinding(f.EACL, d))
	}
	return f.found
}

// deadFinding picks a dead entry's one code and message from its cause.
func deadFinding(e *eacl.EACL, d reason.DeadEntry) finding {
	x := finding{code: "W022", file: d.Source, line: d.Line,
		msg: "prover: no request at any threat level reaches this entry; every world is decided earlier in the scan"}
	if len(d.ShadowedBy) != 1 {
		return x
	}
	en, prev := &e.Entries[d.Index], &e.Entries[d.ShadowedBy[0]]
	switch {
	case eacl.RightsEquivalent(prev.Right, en.Right) && sameConditions(prev, en):
		x.code, x.msg = "W002", fmt.Sprintf("duplicate of entry at line %d", prev.Line)
	case len(prev.Block(eacl.BlockPre)) == 0:
		x.code, x.msg = "W003", fmt.Sprintf("unreachable: shadowed by unconditional entry at line %d whose right %q covers %q",
			prev.Line, prev.Right.Value, en.Right.Value)
	case prev.Right.Sign == en.Right.Sign:
		x.code, x.msg = "W007", fmt.Sprintf("subsumed by entry at line %d: its right covers %q", prev.Line, en.Right.Value)
	}
	return x
}

// unsatFinding names the conditions of an unsatisfiable entry that
// cannot hold together: E011 (time windows) and E012 (threat levels) at
// the last of them, E013 at the entry. Conditions a value-level rule
// reports are left out first; if the rest can hold together, the zero
// finding, which no rule reports, leaves that rule's the only one.
func unsatFinding(eng *reason.Engine, src string, en eacl.Entry) finding {
	en.Conditions = slices.DeleteFunc(slices.Clone(en.Conditions), func(c eacl.Condition) bool {
		return slices.ContainsFunc(valueRules, func(v valueRule) bool { return v.fault(c) != nil })
	})
	core, _ := eng.Unsatisfiable(en)
	if core == nil {
		return finding{}
	}
	x, last := finding{code: "E013", file: src, line: en.Line}, core[len(core)-1]
	code := map[string]string{"time_window": "E011", "system_threat_level": "E012"}[last.Type]
	if code != "" && !slices.ContainsFunc(core, func(c eacl.Condition) bool { return c.Type != last.Type }) {
		x.code, x.line = code, last.Line
	}
	var names []string
	for _, c := range core {
		names = append(names, fmt.Sprintf("%s_%s %q (line %d)", c.Block, c.Type, c.Value, c.Line))
	}
	x.msg = "prover: no request satisfies " + strings.Join(names, " and ") + "; the entry can never fire"
	return x
}

// sameConditions compares two entries' conditions in source order,
// ignoring lines.
func sameConditions(a, b *eacl.Entry) bool {
	return slices.EqualFunc(a.Conditions, b.Conditions, func(x, y eacl.Condition) bool {
		x.Line = y.Line
		return x == y
	})
}

// unknown is the line-0 W022 saying the universal claims are unknown:
// the engine failed, or its regions do not cover the policy.
func unknown(source string, eng *reason.Engine, err error) []finding {
	why := ""
	if err != nil {
		why = err.Error()
	} else if why = eng.Incomplete(); why == "" {
		return nil
	}
	return []finding{{code: "W022", file: source, msg: "prover: dead-entry analysis unknown: " + why}}
}

// findings runs the prover over the composition, once: W020 for the
// local entries a stop-mode system never evaluates, W021 for each grant
// and denial a world shows the grant overriding, E020 for each grant
// system denials veto wherever it fires, W023 for each anonymous grant
// of an authenticated right, and the unknown note (anchored on the
// first system policy) when there are local grants to vet.
func (c *Composition) findings() []finding {
	if c.proved {
		return c.found
	}
	c.proved = true
	// The rights an authentication guard protects cut the domain, so an
	// anonymous grant shows inside each of them where it reaches one.
	all := append(append([]*eacl.EACL{}, c.System...), c.Local...)
	var guarded []eacl.Right
	for _, e := range all {
		for _, en := range e.Entries {
			if readsUser(en) {
				guarded = append(guarded, en.Right)
			}
		}
	}
	eng, err := reason.New(c.System, c.Local, reason.Options{ExtraRights: guarded})
	if len(c.System) > 0 && len(c.Local) > 0 {
		c.found = unknown(c.System[0].Source, eng, err)
	}
	if eng == nil {
		return c.found
	}
	add := func(code string, at reason.Entry, format string, args ...any) {
		c.found = append(c.found, finding{code: code, file: at.Source, line: at.Line, msg: fmt.Sprintf(format, args...)})
	}
	for _, d := range eng.DeadEntries() {
		if d.Cause == reason.CauseStop {
			add("W020", reason.Entry{Source: d.Source, Line: d.Line},
				"dead under stop: the system-wide policy declares eacl_mode stop, so this local entry is never evaluated")
		}
	}
	for _, b := range eng.Bypasses() {
		for _, d := range b.Denials {
			add("W021", b.Grant,
				"mandatory-bypass risk under expand: this grant for %q overlaps the system-wide denial %s:%d for %q and overrides it (expand is a disjunction)",
				b.Grant.Right.Value, d.Source, d.Line, d.Right.Value)
		}
	}
	for _, v := range eng.VetoedGrants() {
		var at []string
		for _, d := range v.Denials {
			at = append(at, fmt.Sprintf("%s:%d", d.Source, d.Line))
		}
		add("E020", v.Grant,
			"never satisfiable under narrow: the system-wide denial %s covers %q and fires whenever this grant would; the conjunction always denies",
			strings.Join(at, " or "), v.Grant.Right.Value)
	}
	granted := map[reason.Entry]bool{}
	for _, g := range eng.AnonymousGrants() {
		at := reason.Entry{Source: g.Source, Line: g.Line}
		guard := userGuard(all, g.Right)
		if guard == "" || granted[at] {
			continue // anonymity is policy intent when nothing demands authentication
		}
		granted[at] = true
		add("W023", at,
			"prover: %q is obtainable anonymously (e.g. client %s requesting %q), but %s guards an overlapping right with pre_cond_accessid_USER",
			g.Right.DefAuth+" "+g.Right.Value, g.Witness.ClientIP, g.Witness.RequestURI, guard)
	}
	return c.found
}

// userGuard returns "source:line" of an entry whose right pattern
// matches the granted right and whose pre block reads the user axis
// (accessid_USER), "" when there is none.
func userGuard(eacls []*eacl.EACL, granted eacl.Right) string {
	for _, e := range eacls {
		for _, en := range e.Entries {
			if eacl.MatchRight(en.Right, granted) && readsUser(en) {
				return fmt.Sprintf("%s:%d", e.Source, en.Line)
			}
		}
	}
	return ""
}

// readsUser reports whether the entry's pre block reads the user axis.
func readsUser(en eacl.Entry) bool {
	return slices.ContainsFunc(en.Block(eacl.BlockPre), func(c eacl.Condition) bool {
		a, _ := conditions.AtomsOf(c.Type, c.Value)
		return a.Axis == conditions.AxisUser
	})
}
