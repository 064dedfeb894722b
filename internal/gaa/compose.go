package gaa

import "gaaapi/internal/eacl"

// Policy is the composed set of EACLs governing one object: system-wide
// policies first, then local policies (paper section 2.1: "system-wide
// policies implicitly have higher priority than the local policies").
type Policy struct {
	System []*eacl.EACL
	Local  []*eacl.EACL
	// Mode is the composition mode taken from the first system-wide
	// EACL that declares one; DefaultCompositionMode otherwise.
	Mode eacl.CompositionMode
	// Object is the protected object the policy was retrieved for.
	Object string
}

// DefaultCompositionMode applies when no system-wide policy declares a
// mode. Narrow is the fail-safe choice: system denials always hold.
const DefaultCompositionMode = eacl.ModeNarrow

// NewPolicy composes system and local EACL lists, deriving the mode.
func NewPolicy(object string, system, local []*eacl.EACL) *Policy {
	p := &Policy{System: system, Local: local, Mode: DefaultCompositionMode, Object: object}
	for _, e := range system {
		if e.ModeSet {
			p.Mode = e.Mode
			break
		}
	}
	return p
}

// EACLs returns the composed ordered list, system-wide first, honoring
// ModeStop (local policies ignored when a system policy exists).
func (p *Policy) EACLs() []*eacl.EACL {
	if p.Mode == eacl.ModeStop && len(p.System) > 0 {
		return p.System
	}
	out := make([]*eacl.EACL, 0, len(p.System)+len(p.Local))
	out = append(out, p.System...)
	out = append(out, p.Local...)
	return out
}

// Verdict is the decision-only part of a scan result: what one EACL, one
// level or the whole composition decided, without the diagnostics
// (trace, unevaluated conditions, faults) the engine carries beside it.
type Verdict struct {
	Decision   Decision
	Applicable bool
	Challenge  string
}

// LevelFold folds per-EACL verdicts of one level (system or local) as a
// conjunction: "To evaluate several separately specified local (or
// system-wide) policies, we take a conjunction of the policies" (paper
// section 2.1). EACLs with no applicable entry are neutral. It is the
// engine's own fold, exported so whole-policy analysis
// (internal/eacl/reason) composes with the same code it reasons about.
type LevelFold struct {
	applicable       bool
	dec              Decision
	deniedUncurable  bool
	deniedChallenged string
}

// Add folds one EACL's verdict into the level.
func (l *LevelFold) Add(v Verdict) {
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

// Result returns the level's verdict.
func (l *LevelFold) Result() Verdict {
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

// ComposeVerdicts merges the system-level and local-level verdicts
// under the composition mode.
func ComposeVerdicts(mode eacl.CompositionMode, sysExists bool, sys, loc Verdict) Verdict {
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
// level; the level's verdict is folded beside it by a LevelFold.
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
	out.Verdict = ComposeVerdicts(mode, sysExists, sys.Verdict, loc.Verdict)
	if out.Decision == Maybe {
		out.unevaluated = append(append([]eacl.Condition{}, sys.unevaluated...), loc.unevaluated...)
	}
}

// decidingEntry is an entry that fired (or went uncertain) during the
// scan; its request-result, mid and post blocks participate in the
// later phases.
type decidingEntry struct {
	entry  *eacl.Entry
	source string
}
