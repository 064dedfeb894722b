package gaa

import (
	"context"
	"fmt"

	"gaaapi/internal/eacl"
)

// This file is the reference oracle: the plain entry-by-entry
// interpretation of the first-match semantics, with no compilation, no
// tries and no hoisting — the implementation compile_diff_test.go
// compares the production walk (compiled.go) against, through
// ReferenceCheck (export_test.go). Keep it boring: it is only useful as
// long as it is obviously the semantics of the package comment.

// evaluatePolicy runs the scan over both levels, composes, and leaves
// the deciding entries of every applicable level in st.deciders (their
// request-result/mid/post blocks belong to the answer). Results are
// folded into stack accumulators as each EACL is scanned — no
// intermediate per-level result slices.
func (a *API) evaluatePolicy(ctx context.Context, p *Policy, req *Request, st *evalState) evalResult {
	var (
		sys     evalResult
		sysFold LevelFold
	)
	for _, e := range p.System {
		r := a.evaluateEACL(ctx, e, req)
		sys.absorb(&r)
		sysFold.Add(r.Verdict)
		if r.Applicable && r.entry != nil {
			st.deciders = append(st.deciders, decidingEntry{entry: r.entry, source: r.source})
		}
	}
	sys.Verdict = sysFold.Result()
	sysExists := len(p.System) > 0

	var loc evalResult
	loc.Decision = Maybe
	if !(p.Mode == eacl.ModeStop && sysExists) {
		var locFold LevelFold
		for _, e := range p.Local {
			r := a.evaluateEACL(ctx, e, req)
			loc.absorb(&r)
			locFold.Add(r.Verdict)
			if r.Applicable && r.entry != nil {
				st.deciders = append(st.deciders, decidingEntry{entry: r.entry, source: r.source})
			}
		}
		loc.Verdict = locFold.Result()
	}
	var out evalResult
	composeLevels(p.Mode, &sys, &loc, sysExists, &out)
	return out
}

// evaluateEACL scans the ordered entries of one EACL for the requested
// rights and returns the first firing entry's decision (see the package
// comment for the full semantics). Request-result conditions are NOT
// evaluated here: they run once the composed decision is known.
//
// The pre-condition block is filtered inline from entry.Conditions
// (rather than materialized via Entry.Block) and TraceEvents are only
// recorded when req.Trace is set, so the common Yes/No path performs
// no per-entry allocation.
func (a *API) evaluateEACL(ctx context.Context, e *eacl.EACL, req *Request) evalResult {
	res := evalResult{source: e.Source}
	for i := range e.Entries {
		entry := &e.Entries[i]
		if !entryMatches(entry, req) {
			continue
		}
		var (
			sawNo  bool
			maybes []eacl.Condition
		)
		for ci := range entry.Conditions {
			cond := entry.Conditions[ci]
			if cond.Block != eacl.BlockPre {
				continue
			}
			out := a.evaluateCondition(ctx, cond, req)
			if out.Fault != FaultNone {
				res.faults = append(res.faults, Fault{Cond: cond, Kind: out.Fault, Reason: out.faultReason()})
			}
			// Faults are traced even when tracing is off: a degraded
			// evaluation must stay observable.
			if req.Trace || out.Fault != FaultNone {
				res.trace = append(res.trace, TraceEvent{
					Source: e.Source, EntryLine: entry.Line, Cond: cond, Outcome: out,
				})
			}
			switch out.Result {
			case No:
				if out.classOrDefault() == ClassSelector || entry.Right.Sign == eacl.Neg {
					// Entry inapplicable: scan continues.
					sawNo = true
				} else {
					// Failed requirement on a positive entry: final
					// deny, possibly with an authentication challenge.
					res.Decision = No
					res.Applicable = true
					res.entry = entry
					res.Challenge = out.Challenge
					if req.Trace {
						res.trace = append(res.trace, TraceEvent{
							Source: e.Source, EntryLine: entry.Line,
							Note: fmt.Sprintf("requirement failed: %s", out.Detail),
						})
					}
					return res
				}
			case Maybe:
				maybes = append(maybes, cond)
			case Yes:
				// condition met; continue within the entry
			default:
				// An evaluator returned a zero/invalid decision;
				// treat as unevaluated for fail-safety.
				maybes = append(maybes, cond)
			}
			if sawNo {
				break // conditions are ordered; a selector NO ends the entry
			}
		}
		if sawNo {
			if req.Trace {
				res.trace = append(res.trace, TraceEvent{
					Source: e.Source, EntryLine: entry.Line, Note: "entry inapplicable",
				})
			}
			continue
		}
		if len(maybes) > 0 {
			res.Decision = Maybe
			res.Applicable = true
			res.entry = entry
			res.unevaluated = maybes
			if req.Trace {
				res.trace = append(res.trace, TraceEvent{
					Source: e.Source, EntryLine: entry.Line,
					Note: fmt.Sprintf("entry uncertain: %d condition(s) unevaluated", len(maybes)),
				})
			}
			return res
		}
		// All pre-conditions met: the entry fires.
		res.Applicable = true
		res.entry = entry
		if entry.Right.Sign == eacl.Pos {
			res.Decision = Yes
			if req.Trace {
				res.trace = append(res.trace, TraceEvent{
					Source: e.Source, EntryLine: entry.Line, Note: "entry fired: grant",
				})
			}
		} else {
			res.Decision = No
			if req.Trace {
				res.trace = append(res.trace, TraceEvent{
					Source: e.Source, EntryLine: entry.Line, Note: "entry fired: deny",
				})
			}
		}
		return res
	}
	// No entry applied: uncertain.
	res.Decision = Maybe
	return res
}

// entryMatches reports whether the entry's right covers any requested
// right.
func entryMatches(entry *eacl.Entry, req *Request) bool {
	for _, r := range req.Rights {
		if eacl.MatchRight(entry.Right, r) {
			return true
		}
	}
	return false
}
