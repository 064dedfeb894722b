package gaa

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"gaaapi/internal/eacl"
)

// Policy is the composed set of EACLs governing one object: system-wide
// policies first, then local policies (paper section 2.1: "system-wide
// policies implicitly have higher priority than the local policies").
//
// A Policy is the object's half of a composition. System, Local and
// Mode are its composition's, read through the embedded pointer, which
// every object composed from the same source content shares. The
// object's own part is its name and its rights memo. Once checked, a
// Policy is not modified and not copied: it remembers which of its
// entries cover the right it was first checked for.
type Policy struct {
	*composition
	// Object is the protected object the policy was retrieved for.
	Object string

	rights rightsMemo // compiled.go
}

// composition is what the sources said about an object, shared by
// every object they said the same of and immutable once built.
type composition struct {
	System []*eacl.EACL
	Local  []*eacl.EACL
	// Mode is the composition mode taken from the first system-wide
	// EACL that declares one; DefaultCompositionMode otherwise.
	Mode eacl.CompositionMode

	// revs are the per-source revisions read before Policies, system
	// sources first, nsys of them: a source that changed since makes
	// the composition stale (fresh).
	revs []string
	nsys int
	// words is the rights memo's need in bitset words (compiled.go).
	words int
	// units are the compiled units of System then Local, resolved for
	// one API at one registry generation (unitsFor).
	units atomic.Pointer[compiledUnits]
}

// DefaultCompositionMode applies when no system-wide policy declares a
// mode. Narrow is the fail-safe choice: system denials always hold.
const DefaultCompositionMode = eacl.ModeNarrow

// NewPolicy composes system and local EACL lists, deriving the mode.
func NewPolicy(object string, system, local []*eacl.EACL) *Policy {
	return &Policy{composition: newComposition(system, local), Object: object}
}

func newComposition(system, local []*eacl.EACL) *composition {
	c := &composition{System: system, Local: local, Mode: DefaultCompositionMode}
	for _, e := range system {
		if e.ModeSet {
			c.Mode = e.Mode
			break
		}
	}
	for _, level := range [2][]*eacl.EACL{system, local} {
		for _, e := range level {
			c.words += bitWords(len(e.Entries))
		}
	}
	return c
}

// fresh reports whether every source still reads the revision c was
// composed at, comparing element-wise (system first, then local) with
// no key construction. It stops at the first stale source.
func (c *composition) fresh(object string, system, local []PolicySource) (bool, error) {
	if c.nsys != len(system) || len(c.revs) != len(system)+len(local) {
		return false, nil
	}
	for i, src := range system {
		r, err := src.Revision(object)
		if err != nil || r != c.revs[i] {
			return false, err
		}
	}
	for i, src := range local {
		r, err := src.Revision(object)
		if err != nil || r != c.revs[len(system)+i] {
			return false, err
		}
	}
	return true, nil
}

// compositionTable interns compositions by the EACL pointers they
// hold: a source hands back the same *eacl.EACL until its content
// changes, so equal pointers and revisions are equal content, and the
// objects they govern share one composition. Blowing the cap resets
// the table, as programTable does: a source that re-parses on every
// call would otherwise grow it without bound, and a reset costs only
// sharing, since every cached object keeps its own composition.
type compositionTable struct {
	mu sync.Mutex
	m  map[uint64]*composition
}

const maxCompositions = 1024

// intern returns the composition of system and local at revs, nsys of
// them system sources' revisions, building it on first sight. Only a
// new composition keeps a copy of revs.
func (t *compositionTable) intern(revs []string, nsys int, system, local []*eacl.EACL) *composition {
	h := uint64(len(system))
	for _, level := range [2][]*eacl.EACL{system, local} {
		for _, e := range level {
			h = (h ^ uint64(uintptr(unsafe.Pointer(e)))) * 0x100000001b3
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.m[h]; c != nil && c.nsys == nsys && slices.Equal(c.revs, revs) &&
		slices.Equal(c.System, system) && slices.Equal(c.Local, local) {
		return c
	}
	if t.m == nil || len(t.m) >= maxCompositions {
		t.m = make(map[uint64]*composition)
	}
	c := newComposition(system, local)
	c.revs, c.nsys = slices.Clone(revs), nsys
	t.m[h] = c
	return c
}

// Verdict is the decision-only part of a scan result: what one EACL, one
// level or the whole composition decided, without the diagnostics
// (trace, unevaluated conditions, faults) the engine carries beside it.
type Verdict struct {
	Decision   Decision
	Applicable bool
	Challenge  string
}

// levelFold folds per-EACL verdicts of one level (system or local) as a
// conjunction: "To evaluate several separately specified local (or
// system-wide) policies, we take a conjunction of the policies" (paper
// section 2.1). EACLs with no applicable entry are neutral. The
// compiled engine and the specification (spec.go) share it.
type levelFold struct {
	applicable       bool
	dec              Decision
	deniedUncurable  bool
	deniedChallenged string
}

// add folds one EACL's verdict into the level.
func (l *levelFold) add(v Verdict) {
	if !v.Applicable {
		return
	}
	l.applicable = true
	l.dec = Conjoin(l.dec, v.Decision)
	if v.Decision == No {
		if v.Challenge == "" {
			l.deniedUncurable = true
		} else if l.deniedChallenged == "" {
			l.deniedChallenged = v.Challenge
		}
	}
}

// result returns the level's verdict.
func (l *levelFold) result() Verdict {
	v := Verdict{Decision: Maybe, Applicable: l.applicable} // uncertain until something applies
	if l.applicable {
		v.Decision = l.dec
	}
	// A challenge is only meaningful if authenticating could cure every
	// deny at this level.
	if !l.deniedUncurable {
		v.Challenge = l.deniedChallenged
	}
	return v
}

// composeVerdicts merges the system-level and local-level verdicts
// under the composition mode, for the compiled engine and the
// specification alike.
func composeVerdicts(mode eacl.CompositionMode, sysExists bool, sys, loc Verdict) Verdict {
	var out Verdict
	switch {
	case mode == eacl.ModeStop && sysExists:
		// Local policies are ignored entirely.
		return sys
	case !sys.Applicable && !loc.Applicable:
		out.Decision = Maybe
	case !sys.Applicable:
		out = Verdict{Decision: loc.Decision, Applicable: true}
	case !loc.Applicable:
		out = Verdict{Decision: sys.Decision, Applicable: true}
	case mode == eacl.ModeExpand:
		out = Verdict{Decision: Disjoin(sys.Decision, loc.Decision), Applicable: true}
	default: // narrow (and stop without a system policy)
		out = Verdict{Decision: Conjoin(sys.Decision, loc.Decision), Applicable: true}
	}
	if out.Decision == No {
		// Surface a challenge only if authenticating could cure every
		// deny that contributed to the decision.
		for _, level := range [2]Verdict{sys, loc} {
			if !level.Applicable || level.Decision != No {
				continue
			}
			if level.Challenge == "" {
				out.Challenge = ""
				break
			}
			if out.Challenge == "" {
				out.Challenge = level.Challenge
			}
		}
	}
	return out
}

// absorb appends the diagnostics of one scanned EACL to those of its
// level; the level's verdict is folded beside it by a levelFold.
func (l *evalResult) absorb(r *evalResult) {
	l.trace = append(l.trace, r.trace...)
	// Faults are diagnostics: they surface even from EACLs that did not
	// decide.
	l.faults = append(l.faults, r.faults...)
	if r.Applicable {
		l.unevaluated = append(l.unevaluated, r.unevaluated...)
	}
}

// composeLevels merges the system-level and local-level results under
// the composition mode into out.
func composeLevels(mode eacl.CompositionMode, sys, loc *evalResult, sysExists bool, out *evalResult) {
	if mode == eacl.ModeStop && sysExists {
		// Local policies are ignored entirely, including their trace:
		// they were never evaluated (and produced no faults).
		*out = *sys
		return
	}
	*out = evalResult{
		trace: append(append([]TraceEvent{}, sys.trace...), loc.trace...),
	}
	if n := len(sys.faults) + len(loc.faults); n > 0 {
		out.faults = append(append(make([]Fault, 0, n), sys.faults...), loc.faults...)
	}
	out.Verdict = composeVerdicts(mode, sysExists, sys.Verdict, loc.Verdict)
	if out.Decision == Maybe {
		out.unevaluated = append(append([]eacl.Condition{}, sys.unevaluated...), loc.unevaluated...)
	}
}

// decidingEntry is an entry that fired (or went uncertain) during the
// scan, with the source of its EACL; its request-result, mid and post
// blocks participate in the later phases.
type decidingEntry struct {
	*compiledEntry
	source string
}
