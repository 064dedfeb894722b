package gaa

import (
	"context"
	"fmt"
	"slices"

	"gaaapi/internal/eacl"
)

// This file is the executable specification of the package comment's
// semantics: what one entry would do if the first-match scan reached it
// (SpecEntry), and the scan, folds and request-result conjunction built
// on that (SpecCheck). Keep it plain — no tries, no hoisting, no pooling
// — and off the request path. The compiled engine must answer as this
// file does: compile_diff_test.go compares the two, and
// internal/eacl/reason models every world here and replays each on
// CheckAuthorization.

// EntryKind is what one entry does when the scan reaches it.
type EntryKind uint8

const (
	EntryInapplicable  EntryKind = iota // no right matches, a selector NO, or a NO on a negative entry: the scan goes on
	EntryFiresYes                       // every pre condition YES on a positive entry: grant
	EntryFiresNo                        // every pre condition YES on a negative entry: deny
	EntryMaybe                          // no NO, some MAYBE: uncertain
	EntryRequirementNo                  // a requirement NO on a positive entry: final deny, maybe challenged
)

// EntryModel is what one entry would do for one request if the scan
// reached it.
type EntryModel struct {
	Kind EntryKind
	// Challenge is the failed requirement's, for EntryRequirementNo.
	Challenge string
	// Unevaluated are the pre conditions left MAYBE, for EntryMaybe.
	Unevaluated []eacl.Condition
	// Evaluated are the pre conditions evaluated, in order, each with its
	// outcome: every one up to the first NO, none on a right mismatch.
	Evaluated []TraceEvent
}

// SpecEntry writes into *m, reusing its slices, what entry i of e would
// do for req if the scan reached it: its pre conditions run in order
// through the evaluators registered now, as the scan runs them, until
// the first NO.
func (a *API) SpecEntry(ctx context.Context, e *eacl.EACL, i int, req *Request, m *EntryModel) {
	en := &e.Entries[i]
	*m = EntryModel{Unevaluated: m.Unevaluated[:0], Evaluated: m.Evaluated[:0]}
	if !slices.ContainsFunc(req.Rights, func(r eacl.Right) bool { return eacl.MatchRight(en.Right, r) }) {
		return
	}
	for _, cond := range en.Conditions {
		if cond.Block != eacl.BlockPre {
			continue
		}
		ev, _ := a.reg.lookup(cond.Type, cond.DefAuth)
		out := a.evaluateCondition(ctx, ev, cond, req)
		m.Evaluated = append(m.Evaluated, TraceEvent{Source: e.Source, EntryLine: en.Line, Cond: cond, Outcome: out})
		switch out.Result {
		case No:
			if out.classOrDefault() != ClassSelector && en.Right.Sign == eacl.Pos {
				m.Kind, m.Challenge = EntryRequirementNo, out.Challenge
			}
			return // conditions are ordered: a NO ends the entry
		case Yes:
		default: // MAYBE, or an invalid decision: unevaluated, fail-safe
			m.Unevaluated = append(m.Unevaluated, cond)
		}
	}
	switch {
	case len(m.Unevaluated) > 0:
		m.Kind = EntryMaybe
	case en.Right.Sign == eacl.Pos:
		m.Kind = EntryFiresYes
	default:
		m.Kind = EntryFiresNo
	}
}

// SpecCheck is CheckAuthorization as the specification states it. Each
// EACL of p is scanned first to last and its first entry that is not
// inapplicable decides it; each level folds as a conjunction, the levels
// compose under p's mode, and the request-result blocks of the deciding
// entries run with the composed decision visible and conjoin into it.
// entry(n, i) supplies entry i of the n-th EACL of p, system ones first;
// when entry is nil, SpecEntry evaluates each entry as the scan reaches
// it. Beside the answer, SpecCheck returns each EACL's deciding entry,
// -1 where none applies or the EACL is not scanned. When sysOnly is not
// nil, it also writes there the verdict of p's system level alone, as
// if p had no local policies: the system fold composed with an empty
// local level, then the system deciders' request-result blocks run
// again under that decision.
func (a *API) SpecCheck(ctx context.Context, p *Policy, req *Request, entry func(n, i int) *EntryModel, sysOnly *Verdict) (Answer, []int) {
	r := *req
	if r.Time.IsZero() {
		r.Time = a.clock()
	}
	levels := [2][]*eacl.EACL{p.System, p.Local}
	if entry == nil {
		all := append(slices.Clip(p.System), p.Local...)
		entry = func(n, i int) *EntryModel {
			m := new(EntryModel)
			a.SpecEntry(ctx, all[n], i, &r, m)
			return m
		}
	}
	decided := make([]int, len(p.System)+len(p.Local))
	var res [3]evalResult // system, local, composed
	sysExists := len(p.System) > 0
	for lv, eacls := range levels {
		var fold levelFold
		for k, e := range eacls {
			n := lv*len(p.System) + k
			decided[n] = -1
			if lv == 1 && p.Mode == eacl.ModeStop && sysExists {
				continue // local policies are never evaluated
			}
			var one evalResult
			decided[n] = specScan(e, n, entry, r.Trace, &one)
			res[lv].absorb(&one)
			fold.add(one.Verdict)
		}
		res[lv].Verdict = fold.result()
	}
	composeLevels(p.Mode, &res[0], &res[1], sysExists, &res[2])

	ans := Answer{
		Decision: res[2].Decision, Applicable: res[2].Applicable,
		Unevaluated: res[2].unevaluated, Challenge: res[2].Challenge,
		Trace: res[2].trace, Faults: res[2].faults,
	}
	r.Decision = ans.Decision
	for lv, eacls := range levels {
		for k, e := range eacls {
			if i := decided[lv*len(p.System)+k]; i >= 0 {
				en := &e.Entries[i]
				if dec, ok := a.specBlock(ctx, e.Source, en.Line, en.Conditions, eacl.BlockRequestResult, &r, &ans.Trace, &ans.Faults); ok {
					ans.Decision = Conjoin(ans.Decision, dec)
				}
				for _, c := range en.Conditions {
					switch c.Block {
					case eacl.BlockMid:
						ans.Mid = append(ans.Mid, c)
					case eacl.BlockPost:
						ans.Post = append(ans.Post, c)
					}
				}
			}
		}
	}
	if sysOnly != nil {
		*sysOnly = composeVerdicts(p.Mode, sysExists, res[0].Verdict, Verdict{Decision: Maybe})
		r.Decision = sysOnly.Decision
		var trace []TraceEvent
		for k, e := range p.System {
			if i := decided[k]; i >= 0 {
				en := &e.Entries[i]
				if dec, ok := a.specBlock(ctx, e.Source, en.Line, en.Conditions, eacl.BlockRequestResult, &r, &trace, nil); ok {
					sysOnly.Decision = Conjoin(sysOnly.Decision, dec)
				}
			}
		}
	}
	return ans, decided
}

// specScan is the first-match scan of e, the n-th EACL, over its entry
// models: the first entry not inapplicable decides, and its index is
// returned, -1 when none applies. The verdict lands in res with the
// diagnostics — every evaluated condition of a traced request, faults
// always, and each entry's step note when traced.
func specScan(e *eacl.EACL, n int, entry func(n, i int) *EntryModel, traced bool, res *evalResult) int {
	*res = evalResult{source: e.Source, Verdict: Verdict{Decision: Maybe}} // uncertain unless an entry applies
	for i := range e.Entries {
		m := entry(n, i)
		for j := range m.Evaluated {
			ev := &m.Evaluated[j]
			if ev.Outcome.Fault != FaultNone {
				res.faults = append(res.faults, Fault{Cond: ev.Cond, Kind: ev.Outcome.Fault, Reason: ev.Outcome.faultReason()})
			}
			// Faults are traced even when tracing is off: a degraded
			// evaluation must stay observable.
			if traced || ev.Outcome.Fault != FaultNone {
				res.trace = append(res.trace, *ev)
			}
		}
		switch m.Kind {
		case EntryRequirementNo:
			res.Verdict = Verdict{Decision: No, Applicable: true, Challenge: m.Challenge}
		case EntryMaybe:
			res.Applicable, res.unevaluated = true, m.Unevaluated
		case EntryFiresYes:
			res.Verdict = Verdict{Decision: Yes, Applicable: true}
		case EntryFiresNo:
			res.Verdict = Verdict{Decision: No, Applicable: true}
		}
		if traced && (m.Kind != EntryInapplicable || len(m.Evaluated) > 0) { // a right mismatch passes silently
			res.note(e.Entries[i].Line, specNote(m))
		}
		if m.Kind != EntryInapplicable {
			return i
		}
	}
	return -1
}

// note records a scan step of a traced request.
func (r *evalResult) note(line int, text string) {
	r.trace = append(r.trace, TraceEvent{Source: r.source, EntryLine: line, Note: text})
}

// specNote is the step note a traced scan records for an entry.
func specNote(m *EntryModel) string {
	switch m.Kind {
	case EntryRequirementNo:
		return "requirement failed: " + m.Evaluated[len(m.Evaluated)-1].Outcome.Detail
	case EntryMaybe:
		return fmt.Sprintf("entry uncertain: %d condition(s) unevaluated", len(m.Unevaluated))
	case EntryFiresYes:
		return "entry fired: grant"
	case EntryFiresNo:
		return "entry fired: deny"
	}
	return "entry inapplicable"
}

// specBlock runs every condition of conds in block b (request-result,
// mid or post) and returns their conjunction, and whether there was one;
// none yields (Yes, false). Trace events (every step of a traced
// request, faults always) go to *trace, faults to *faults when not nil.
func (a *API) specBlock(ctx context.Context, source string, line int, conds []eacl.Condition, b eacl.Block, req *Request, trace *[]TraceEvent, faults *[]Fault) (Decision, bool) {
	var combined Decision
	evaluated := false
	for _, cond := range conds {
		if cond.Block != b {
			continue
		}
		evaluated = true
		ev, _ := a.reg.lookup(cond.Type, cond.DefAuth)
		out := a.evaluateCondition(ctx, ev, cond, req)
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
