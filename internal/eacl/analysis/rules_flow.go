package analysis

import (
	"sort"
	"strings"

	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/ids"
)

// Layer 2: entry- and file-level flow analysis. These rules reason
// about the scan semantics of package gaa — entries are examined in
// order, the first applicable entry decides, selectors switch entries
// on and off — using the real glob semantics (eacl.GlobCovers /
// eacl.GlobsOverlap), so "GET /cgi-bin/*" is known to shadow
// "GET /cgi-bin/phf" exactly as the runtime matcher would.

var (
	metaNegBlock = Meta{
		Code: "E010", Name: "neg-illegal-block", Severity: SeverityError,
		Summary: "a mid_cond or post_cond block on a neg_access_right (the grammar gives nright only pre and request-result blocks)",
		Example: "neg_access_right apache *\nmid_cond_quota local cpu_ms<=50",
		Fix:     "move execution-phase conditions to a pos entry; a denial has no operation to constrain",
	}
	metaTimeContradiction = Meta{
		Code: "E011", Name: "time-contradiction", Severity: SeverityError,
		Summary: "one entry carries disjoint time windows, so its conditions can never hold together",
		Example: "pre_cond_time_window local 09:00-12:00\npre_cond_time_window local 13:00-17:00",
		Fix:     "split the entry in two (EACL entries are disjunctive) or merge the windows",
	}
	metaThreatContradiction = Meta{
		Code: "E012", Name: "threat-contradiction", Severity: SeverityError,
		Summary: "one entry's threat-level conditions have no common satisfying level",
		Example: "pre_cond_system_threat_level local =high\npre_cond_system_threat_level local =low",
		Fix:     "keep one threat condition per entry; use separate entries for disjoint threat states",
	}
	metaUnknownCondition = Meta{
		Code: "W001", Name: "unknown-condition", Severity: SeverityWarning,
		Summary: "no evaluator registered for a condition (it evaluates to MAYBE on every request)",
		Example: "pre_cond_phase_of_moon local full",
		Fix:     "register the routine in the GAA configuration file, or remove the condition",
	}
	metaDuplicateEntry = Meta{
		Code: "W002", Name: "duplicate-entry", Severity: SeverityWarning,
		Summary: "an entry repeats an earlier entry verbatim (same right, same conditions)",
		Example: "pos_access_right apache *\npos_access_right apache *",
		Fix:     "delete the duplicate; the first occurrence already decides",
	}
	metaUnreachableEntry = Meta{
		Code: "W003", Name: "unreachable-entry", Severity: SeverityWarning,
		Summary: "an earlier unconditional entry glob-covers this entry's right, so it can never fire",
		Example: "pos_access_right apache GET /cgi-bin/*\nneg_access_right apache GET /cgi-bin/phf",
		Fix:     "move the narrower entry first (entries are examined in order) or narrow the earlier right",
	}
	metaPosNegConflict = Meta{
		Code: "W004", Name: "pos-neg-conflict", Severity: SeverityWarning,
		Summary: "two entries with overlapping rights and identical guards disagree on the sign; order alone decides",
		Example: "pos_access_right apache GET /a*\nneg_access_right apache GET *b",
		Fix:     "make the rights disjoint, or add distinguishing pre-conditions to one of the entries",
	}
	metaMaybeOnlyEntry = Meta{
		Code: "W005", Name: "maybe-only-entry", Severity: SeverityWarning,
		Summary: "every pre-condition of the entry is unregistered, so the entry can only ever evaluate to MAYBE",
		Example: "pos_access_right apache *\npre_cond_phase_of_moon local full",
		Fix:     "register the evaluators, or delete the entry — it can never grant nor deny",
	}
	metaEmptyEACL = Meta{
		Code: "W006", Name: "empty-eacl", Severity: SeverityWarning,
		Summary: "the EACL has no entries; evaluation always yields MAYBE (uncertain)",
		Example: "# a policy file with only comments",
		Fix:     "add at least one entry, or delete the file so no policy is retrieved for the object",
	}
	metaSubsumedEntry = Meta{
		Code: "W007", Name: "subsumed-entry", Severity: SeverityWarning,
		Summary: "an earlier same-sign entry covers this right under a subset of its pre-conditions, so the earlier entry always decides first",
		Example: "pos_access_right apache *\npre_cond_accessid_USER apache *\npos_access_right apache GET /docs/*\npre_cond_accessid_USER apache *\npre_cond_time_window local 09:00-17:00",
		Fix:     "delete the narrower entry, or order it before the broader one if it must add conditions",
	}
)

// negBlockRule (E010) is the grammar check nright ::= pre_cond_block
// rr_cond_block.
type negBlockRule struct{}

func (negBlockRule) Meta() Meta { return metaNegBlock }

func (negBlockRule) CheckFile(f *File, r *Reporter) {
	for i := range f.EACL.Entries {
		en := &f.EACL.Entries[i]
		if en.Right.Sign != eacl.Neg {
			continue
		}
		for _, c := range en.Conditions {
			if c.Block == eacl.BlockMid || c.Block == eacl.BlockPost {
				r.Report(f.EACL.Source, c.Line,
					"%s block not allowed on neg_access_right (grammar: nright ::= pre_cond_block rr_cond_block)", c.Block)
			}
		}
	}
}

// timeContradictionRule (E011) finds entries whose time-window
// pre-conditions are pairwise-conjoined but never intersect. All
// pre-conditions of one entry must hold together for the entry to
// fire, so two disjoint windows make the entry unsatisfiable.
type timeContradictionRule struct{}

func (timeContradictionRule) Meta() Meta { return metaTimeContradiction }

func (timeContradictionRule) CheckFile(f *File, r *Reporter) {
	for i := range f.EACL.Entries {
		en := &f.EACL.Entries[i]
		type window struct {
			w    conditions.TimeWindow
			cond *eacl.Condition
		}
		var windows []window
		for j := range en.Conditions {
			c := &en.Conditions[j]
			if c.Block != eacl.BlockPre || c.Type != "time_window" {
				continue
			}
			w, err := conditions.ParseTimeWindowSpec(c.Value)
			if err != nil || w.Empty() {
				continue // E003/E004 findings, or an '@' reference: no window to read
			}
			windows = append(windows, window{w, c})
		}
		for a := 0; a < len(windows); a++ {
			for b := a + 1; b < len(windows); b++ {
				if !windows[a].w.Intersects(windows[b].w) {
					r.Report(f.EACL.Source, windows[b].cond.Line,
						"time windows %q (line %d) and %q never intersect; the entry can never fire",
						windows[a].cond.Value, windows[a].cond.Line, windows[b].cond.Value)
				}
			}
		}
	}
}

// threatContradictionRule (E012) intersects the satisfying threat-level
// sets of an entry's system_threat_level pre-conditions; an empty
// intersection (including a single unsatisfiable condition like "<low")
// makes the entry dead.
type threatContradictionRule struct{}

func (threatContradictionRule) Meta() Meta { return metaThreatContradiction }

func (threatContradictionRule) CheckFile(f *File, r *Reporter) {
	for i := range f.EACL.Entries {
		en := &f.EACL.Entries[i]
		sat := map[ids.Level]bool{ids.Low: true, ids.Medium: true, ids.High: true}
		var seen []*eacl.Condition
		for j := range en.Conditions {
			c := &en.Conditions[j]
			if c.Block != eacl.BlockPre || c.Type != "system_threat_level" {
				continue
			}
			levels, err := conditions.ThreatLevelSet(c.Value)
			if err != nil {
				continue // E007's finding, or an '@' reference: no level set to read
			}
			seen = append(seen, c)
			ok := map[ids.Level]bool{}
			for _, l := range levels {
				ok[l] = true
			}
			for l := range sat {
				if !ok[l] {
					delete(sat, l)
				}
			}
		}
		if len(seen) == 0 || len(sat) > 0 {
			continue
		}
		last := seen[len(seen)-1]
		var values []string
		for _, c := range seen {
			values = append(values, c.Value)
		}
		r.Report(f.EACL.Source, last.Line,
			"no threat level satisfies %s together; the entry can never fire",
			strings.Join(values, " and "))
	}
}

// unknownConditionRule (W001) flags conditions with no registered
// evaluator — the paper's semantics evaluate them to MAYBE at run time.
type unknownConditionRule struct{}

func (unknownConditionRule) Meta() Meta { return metaUnknownCondition }

func (unknownConditionRule) CheckFile(f *File, r *Reporter) {
	if f.Known == nil {
		return
	}
	eachCondition(f.EACL, func(c *eacl.Condition) {
		if !f.Known(c.Type, c.DefAuth) {
			r.Report(f.EACL.Source, c.Line,
				"no evaluator registered for condition %s_%s (authority %q); evaluates to MAYBE", c.Block, c.Type, c.DefAuth)
		}
	})
}

// duplicateEntryRule (W002) flags verbatim repeats.
type duplicateEntryRule struct{}

func (duplicateEntryRule) Meta() Meta { return metaDuplicateEntry }

func (duplicateEntryRule) CheckFile(f *File, r *Reporter) {
	for i := range f.EACL.Entries {
		en := &f.EACL.Entries[i]
		for j := 0; j < i; j++ {
			prev := &f.EACL.Entries[j]
			if !eacl.RightsEquivalent(prev.Right, en.Right) {
				continue
			}
			if condKey(prev) != condKey(en) {
				continue
			}
			r.Report(f.EACL.Source, en.Line, "duplicate of entry at line %d", prev.Line)
			break
		}
	}
}

// unreachableEntryRule (W003) flags entries shadowed by an earlier
// unconditional entry whose right glob-covers theirs: the earlier entry
// always decides first, whatever its sign.
type unreachableEntryRule struct{}

func (unreachableEntryRule) Meta() Meta { return metaUnreachableEntry }

func (unreachableEntryRule) CheckFile(f *File, r *Reporter) {
	for i := range f.EACL.Entries {
		en := &f.EACL.Entries[i]
		for j := 0; j < i; j++ {
			prev := &f.EACL.Entries[j]
			if len(prev.Block(eacl.BlockPre)) == 0 && eacl.RightCovers(prev.Right, en.Right) {
				r.Report(f.EACL.Source, en.Line,
					"unreachable: shadowed by unconditional entry at line %d whose right %q covers %q",
					prev.Line, prev.Right.Value, en.Right.Value)
				break
			}
		}
	}
}

// posNegConflictRule (W004) flags pairs of entries with opposite signs,
// overlapping rights and identical pre-condition guards: a request in
// the overlap satisfies both guards, so only entry order decides
// whether it is granted or denied — almost always an authoring error.
type posNegConflictRule struct{}

func (posNegConflictRule) Meta() Meta { return metaPosNegConflict }

func (posNegConflictRule) CheckFile(f *File, r *Reporter) {
	for i := range f.EACL.Entries {
		en := &f.EACL.Entries[i]
		for j := 0; j < i; j++ {
			prev := &f.EACL.Entries[j]
			if prev.Right.Sign == en.Right.Sign {
				continue
			}
			if !eacl.RightsOverlap(prev.Right, en.Right) {
				continue
			}
			if preKey(prev) != preKey(en) {
				continue
			}
			// The covering case is W003's unreachable finding; report
			// the partial-overlap conflict only once, on the later entry.
			if len(prev.Block(eacl.BlockPre)) == 0 && eacl.RightCovers(prev.Right, en.Right) {
				continue
			}
			r.Report(f.EACL.Source, en.Line,
				"conflicts with %s entry at line %d: rights %q and %q overlap under identical conditions; entry order alone decides the sign",
				prev.Right.Sign, prev.Line, prev.Right.Value, en.Right.Value)
		}
	}
}

// maybeOnlyEntryRule (W005) flags entries none of whose pre-conditions
// has a registered evaluator: such an entry can neither fire nor be
// ruled out, so every matching request inherits a MAYBE from it.
type maybeOnlyEntryRule struct{}

func (maybeOnlyEntryRule) Meta() Meta { return metaMaybeOnlyEntry }

func (maybeOnlyEntryRule) CheckFile(f *File, r *Reporter) {
	if f.Known == nil {
		return
	}
	for i := range f.EACL.Entries {
		en := &f.EACL.Entries[i]
		pre := en.Block(eacl.BlockPre)
		if len(pre) == 0 {
			continue
		}
		known := 0
		for _, c := range pre {
			if f.Known(c.Type, c.DefAuth) {
				known++
			}
		}
		if known == 0 {
			r.Report(f.EACL.Source, en.Line,
				"entry can only ever evaluate to MAYBE: none of its %d pre-conditions has a registered evaluator", len(pre))
		}
	}
}

// emptyEACLRule (W006) flags files with no entries.
type emptyEACLRule struct{}

func (emptyEACLRule) Meta() Meta { return metaEmptyEACL }

func (emptyEACLRule) CheckFile(f *File, r *Reporter) {
	if len(f.EACL.Entries) == 0 {
		r.Report(f.EACL.Source, 0, "EACL has no entries; evaluation always yields MAYBE (uncertain)")
	}
}

// subsumedEntryRule (W007) generalizes W003 to conditional entries: an
// earlier entry with the same sign, a covering right, and a subset of
// this entry's pre-conditions fires whenever this entry would — the
// later entry never changes the decision. (The earlier entry's guard
// holding is implied by the later one's, because an entry's
// pre-conditions are conjoined.)
type subsumedEntryRule struct{}

func (subsumedEntryRule) Meta() Meta { return metaSubsumedEntry }

func (subsumedEntryRule) CheckFile(f *File, r *Reporter) {
	for i := range f.EACL.Entries {
		en := &f.EACL.Entries[i]
		enPre := preSet(en)
		for j := 0; j < i; j++ {
			prev := &f.EACL.Entries[j]
			if prev.Right.Sign != en.Right.Sign || !eacl.RightCovers(prev.Right, en.Right) {
				continue
			}
			prevPre := prev.Block(eacl.BlockPre)
			if len(prevPre) == 0 {
				continue // W003's unreachable finding
			}
			if !subsetOf(prevPre, enPre) {
				continue
			}
			r.Report(f.EACL.Source, en.Line,
				"subsumed by entry at line %d: its right covers %q and its pre-conditions are a subset of this entry's",
				prev.Line, en.Right.Value)
			break
		}
	}
}

// preKey canonicalizes an entry's pre-condition block for guard
// comparison; order is normalized so reordered but identical guards
// still compare equal.
func preKey(en *eacl.Entry) string {
	conds := canonicalPre(en)
	return strings.Join(conds, "\n")
}

// preSet returns the canonical pre-condition strings as a set.
func preSet(en *eacl.Entry) map[string]bool {
	set := map[string]bool{}
	for _, s := range canonicalPre(en) {
		set[s] = true
	}
	return set
}

func canonicalPre(en *eacl.Entry) []string {
	var out []string
	for _, c := range en.Block(eacl.BlockPre) {
		canon := c
		canon.Line = 0
		out = append(out, canon.String())
	}
	sort.Strings(out)
	return out
}

func subsetOf(conds []eacl.Condition, set map[string]bool) bool {
	for _, c := range conds {
		canon := c
		canon.Line = 0
		if !set[canon.String()] {
			return false
		}
	}
	return true
}

// condKey is W002's duplicate comparison: the conditions in source
// order, lines normalized. The right is compared separately with
// eacl.RightsEquivalent so semantically equal glob spellings
// ("GET /a?*" vs "GET /a?**") still count as duplicates.
func condKey(en *eacl.Entry) string {
	var key string
	for _, c := range en.Conditions {
		canon := c
		canon.Line = 0
		key += "\n" + canon.String()
	}
	return key
}
