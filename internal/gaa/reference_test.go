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

// referenceDecider is a deciding entry of the reference scan.
type referenceDecider struct {
	entry  *eacl.Entry
	source string
}

// evaluatePolicy runs the scan over both levels, composes, and returns
// the deciding entries of every applicable level beside the result
// (their request-result/mid/post blocks belong to the answer). Results
// are folded into stack accumulators as each EACL is scanned — no
// intermediate per-level result slices.
func (a *API) evaluatePolicy(ctx context.Context, p *Policy, req *Request) (evalResult, []referenceDecider) {
	var (
		sys      evalResult
		sysFold  LevelFold
		deciders []referenceDecider
	)
	for _, e := range p.System {
		r, entry := a.evaluateEACL(ctx, e, req)
		sys.absorb(&r)
		sysFold.Add(r.Verdict)
		if r.Applicable && entry != nil {
			deciders = append(deciders, referenceDecider{entry, r.source})
		}
	}
	sys.Verdict = sysFold.Result()
	sysExists := len(p.System) > 0

	var loc evalResult
	loc.Decision = Maybe
	if !(p.Mode == eacl.ModeStop && sysExists) {
		var locFold LevelFold
		for _, e := range p.Local {
			r, entry := a.evaluateEACL(ctx, e, req)
			loc.absorb(&r)
			locFold.Add(r.Verdict)
			if r.Applicable && entry != nil {
				deciders = append(deciders, referenceDecider{entry, r.source})
			}
		}
		loc.Verdict = locFold.Result()
	}
	var out evalResult
	composeLevels(p.Mode, &sys, &loc, sysExists, &out)
	return out, deciders
}

// referenceConclude turns the reference scan's result into the answer:
// the request-result conditions of every deciding entry run with the
// decision visible, and the mid and post conditions are collected.
func (a *API) referenceConclude(ctx context.Context, req *Request, res *evalResult, deciders []referenceDecider) *Answer {
	ans := &Answer{
		Decision: res.Decision, Applicable: res.Applicable,
		Unevaluated: res.unevaluated, Challenge: res.Challenge,
		Trace: res.trace, Faults: res.faults,
	}
	req.Decision = ans.Decision
	for _, d := range deciders {
		dec, evaluated := a.evaluateBlock(ctx, d.source, d.entry.Line, d.entry.Conditions, eacl.BlockRequestResult, req, &ans.Trace, &ans.Faults)
		if evaluated {
			ans.Decision = Conjoin(ans.Decision, dec)
		}
		for _, c := range d.entry.Conditions {
			switch c.Block {
			case eacl.BlockMid:
				ans.Mid = append(ans.Mid, c)
			case eacl.BlockPost:
				ans.Post = append(ans.Post, c)
			}
		}
	}
	return ans
}

// referencePhase is ExecutionControl (block mid) or
// PostExecutionActions (block post) interpreting ans.Mid or ans.Post.
func (a *API) referencePhase(ctx context.Context, ans *Answer, b eacl.Block, req *Request, opStatus Decision, extra ...Param) (Decision, []TraceEvent) {
	conds, source := ans.Mid, "mid"
	if b == eacl.BlockPost {
		conds, source = ans.Post, "post"
	}
	if len(conds) == 0 {
		return Yes, nil
	}
	r := *req
	r.Trace = a.trace || req.Trace
	if r.Time.IsZero() {
		r.Time = a.clock()
	}
	r.Decision, r.OpStatus = ans.Decision, opStatus
	r.Params = append(append(ParamList(nil), req.Params...), extra...)
	var trace []TraceEvent
	dec, _ := a.evaluateBlock(ctx, source, 0, conds, b, &r, &trace, nil)
	return dec, trace
}

// evaluateBlock evaluates the conditions of conds that belong to block
// b (request-result, mid or post) and returns the conjunction of their
// outcomes: in these phases every condition runs, there is no
// entry-selection short-circuit. Trace events (every step of a traced
// request, faults always) are appended to *trace and faults, when the
// caller collects them, to *faults. The second return reports whether
// conds held any condition of the block; none yields (Yes, false).
func (a *API) evaluateBlock(ctx context.Context, source string, line int, conds []eacl.Condition, b eacl.Block, req *Request, trace *[]TraceEvent, faults *[]Fault) (Decision, bool) {
	var (
		combined  Decision
		evaluated bool
	)
	for _, cond := range conds {
		if cond.Block != b {
			continue
		}
		evaluated = true
		out := a.referenceCondition(ctx, cond, req)
		if out.Fault != FaultNone && faults != nil {
			*faults = append(*faults, Fault{Cond: cond, Kind: out.Fault, Reason: out.faultReason()})
		}
		if req.Trace || out.Fault != FaultNone {
			*trace = append(*trace, TraceEvent{Source: source, EntryLine: line, Cond: cond, Outcome: out})
		}
		combined = Conjoin(combined, out.Result)
	}
	if !evaluated {
		return Yes, false
	}
	return combined, true
}

// referenceCondition evaluates cond through the evaluator registered
// for it now.
func (a *API) referenceCondition(ctx context.Context, cond eacl.Condition, req *Request) Outcome {
	ev, _ := a.reg.lookup(cond.Type, cond.DefAuth)
	return a.evaluateCondition(ctx, ev, cond, req)
}

// evaluateEACL scans the ordered entries of one EACL for the requested
// rights and returns the first firing entry's decision, and the entry
// (see the package
// comment for the full semantics). Request-result conditions are NOT
// evaluated here: they run once the composed decision is known.
//
// The pre-condition block is filtered inline from entry.Conditions
// (rather than materialized via Entry.Block) and TraceEvents are only
// recorded when req.Trace is set, so the common Yes/No path performs
// no per-entry allocation.
func (a *API) evaluateEACL(ctx context.Context, e *eacl.EACL, req *Request) (evalResult, *eacl.Entry) {
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
			out := a.referenceCondition(ctx, cond, req)
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
					res.Challenge = out.Challenge
					if req.Trace {
						res.trace = append(res.trace, TraceEvent{
							Source: e.Source, EntryLine: entry.Line,
							Note: fmt.Sprintf("requirement failed: %s", out.Detail),
						})
					}
					return res, entry
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
			res.unevaluated = maybes
			if req.Trace {
				res.trace = append(res.trace, TraceEvent{
					Source: e.Source, EntryLine: entry.Line,
					Note: fmt.Sprintf("entry uncertain: %d condition(s) unevaluated", len(maybes)),
				})
			}
			return res, entry
		}
		// All pre-conditions met: the entry fires.
		res.Applicable = true
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
		return res, entry
	}
	// No entry applied: uncertain.
	res.Decision = Maybe
	return res, nil
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
