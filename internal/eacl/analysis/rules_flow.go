package analysis

import (
	"sort"
	"strings"

	"gaaapi/internal/eacl"
)

// Layer 2: structural checks: the grammar, the registration vocabulary,
// and pos/neg conflicts over overlapping rights (eacl.RightsOverlap).
// They read the syntax and the registry, not worlds: whether an entry
// can ever decide is the prover's fact (rules_prove.go).

var (
	metaNegBlock = Meta{
		Code: "E010", Name: "neg-illegal-block", Severity: SeverityError,
		Summary: "a mid_cond or post_cond block on a neg_access_right (the grammar gives nright only pre and request-result blocks)",
		Fix:     "move execution-phase conditions to a pos entry; a denial has no operation to constrain",
	}
	metaUnknownCondition = Meta{
		Code: "W001", Name: "unknown-condition", Severity: SeverityWarning,
		Summary: "no evaluator registered for a condition (it evaluates to MAYBE on every request)",
		Fix:     "register the routine in the GAA configuration file, or remove the condition",
	}
	metaPosNegConflict = Meta{
		Code: "W004", Name: "pos-neg-conflict", Severity: SeverityWarning,
		Summary: "two entries with overlapping rights and identical guards disagree on the sign; order alone decides",
		Fix:     "make the rights disjoint, or add distinguishing pre-conditions to one of the entries",
	}
	metaMaybeOnlyEntry = Meta{
		Code: "W005", Name: "maybe-only-entry", Severity: SeverityWarning,
		Summary: "every pre-condition of the entry is unregistered, so the entry can only ever evaluate to MAYBE",
		Fix:     "register the evaluators, or delete the entry — it can never grant nor deny",
	}
	metaEmptyEACL = Meta{
		Code: "W006", Name: "empty-eacl", Severity: SeverityWarning,
		Summary: "the EACL has no entries; evaluation always yields MAYBE (uncertain)",
		Fix:     "add at least one entry, or delete the file so no policy is retrieved for the object",
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
			// The covering case leaves the later entry dead (W003);
			// report only the partial-overlap conflict.
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

// preKey canonicalizes an entry's pre-condition block for guard
// comparison; order is normalized so reordered but identical guards
// still compare equal.
func preKey(en *eacl.Entry) string {
	var conds []string
	for _, c := range en.Block(eacl.BlockPre) {
		c.Line = 0
		conds = append(conds, c.String())
	}
	sort.Strings(conds)
	return strings.Join(conds, "\n")
}
