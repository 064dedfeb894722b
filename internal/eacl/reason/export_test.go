package reason

import (
	"context"
	"slices"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
)

// FreshUnsatisfiable is the per-entry question as it was asked before
// it walked on a file's engine: a fresh engine of its own for each
// one-entry policy, and each world where the entry decides modeled
// again. Engine.Unsatisfiable answers to it.
func FreshUnsatisfiable(en eacl.Entry) (core []eacl.Condition, unknown string) {
	if empty, unknown := freshEmptyRegion(en); !empty {
		return nil, unknown
	}
	core = en.Block(eacl.BlockPre)
	for _, c := range core {
		sub := slices.DeleteFunc(en.Block(eacl.BlockPre), func(o eacl.Condition) bool { return o.Type != c.Type })
		if empty, _ := freshEmptyRegion(eacl.Entry{Right: en.Right, Conditions: sub}); empty {
			return sub, ""
		}
	}
	return core, ""
}

func freshEmptyRegion(en eacl.Entry) (empty bool, unknown string) {
	e, err := New(nil, []*eacl.EACL{{Source: "entry", Entries: []eacl.Entry{en}}}, Options{})
	if err != nil {
		return false, err.Error()
	}
	var m gaa.EntryModel
	for i := range e.results {
		if e.walked[i][0] < 0 {
			continue
		}
		e.env.enter(e.dom, &e.results[i].w)
		e.env.api.SpecEntry(context.Background(), e.eacls[0], 0, e.env.req, &m)
		if e.holds(&m) {
			return false, ""
		}
	}
	if e.dom.incomplete() {
		return false, e.Incomplete()
	}
	return true, ""
}
