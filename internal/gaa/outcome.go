package gaa

import "fmt"

// Class describes how a condition outcome participates in entry
// selection (see the package comment).
type Class int

const (
	// ClassSelector conditions decide whether the entry applies to the
	// current request/system state; NO means "entry inapplicable, keep
	// scanning" (threat level, time window, location, group membership,
	// request signatures).
	ClassSelector Class = iota + 1
	// ClassRequirement conditions must hold once the entry applies; NO
	// on a positive entry is a final deny, optionally carrying an
	// authentication challenge (access identity, payload limits).
	ClassRequirement
	// ClassAction conditions perform side effects (notification, audit,
	// blacklist update); they normally evaluate YES and are only legal
	// in request-result and post blocks.
	ClassAction
)

// String returns a symbolic name for the class.
func (c Class) String() string {
	switch c {
	case ClassSelector:
		return "selector"
	case ClassRequirement:
		return "requirement"
	case ClassAction:
		return "action"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Outcome is the result of evaluating one condition.
type Outcome struct {
	// Result is the tri-state condition status.
	Result Decision
	// Class steers entry selection; the zero value is treated as
	// ClassSelector, the common case.
	Class Class
	// Unevaluated marks a condition deliberately (or for lack of a
	// registered evaluator) left unevaluated; Result must be Maybe.
	Unevaluated bool
	// Challenge optionally tells the application how the requester
	// could satisfy a failed requirement (e.g. a Basic-auth realm).
	Challenge string
	// Detail is a human-readable explanation recorded in the trace.
	Detail string
	// Err records an evaluator failure; the engine degrades it to
	// MAYBE and keeps the error in the trace.
	Err error
	// Fault, when not FaultNone, marks an outcome produced by the
	// supervision layer degrading a failed evaluation (panic, timeout,
	// error, invalid decision). Evaluators leave it zero.
	Fault FaultKind
}

// classOrDefault resolves the zero Class to ClassSelector.
func (o Outcome) classOrDefault() Class {
	if o.Class == 0 {
		return ClassSelector
	}
	return o.Class
}

// MetOutcome is shorthand for a satisfied condition of the given class.
func MetOutcome(class Class, detail string) Outcome {
	return Outcome{Result: Yes, Class: class, Detail: detail}
}

// FailedOutcome is shorthand for an unmet condition of the given class.
func FailedOutcome(class Class, detail string) Outcome {
	return Outcome{Result: No, Class: class, Detail: detail}
}

// UnevaluatedOutcome is shorthand for a condition left unevaluated.
func UnevaluatedOutcome(detail string) Outcome {
	return Outcome{Result: Maybe, Unevaluated: true, Detail: detail}
}

// CondVerdict is what a hoisted test (CompiledCond) answers with: the
// part of an Outcome the scan acts on, in one pointer-free word that
// travels in a register and memoizes in a byte. There is no Detail:
// only a trace reads it, and the specification, which writes every
// trace, calls the evaluator. A selector YES is CondYes; a failed requirement with a realm is
// CondNo|CondRequirement|CondChallenge.
type CondVerdict uint8

const (
	// Bits 0–1: the result, with Decision's own values.
	CondYes   = CondVerdict(Yes)
	CondNo    = CondVerdict(No)
	CondMaybe = CondVerdict(Maybe) // always "unevaluated" on this path
	// Bit 2: the class — a requirement, not the default selector.
	CondRequirement CondVerdict = 1 << 2
	// Bit 3: a deny the requester could cure by meeting the condition's
	// Challenge.
	CondChallenge CondVerdict = 1 << 3
)

// Result returns the tri-state result; zero for an invalid word, which
// the scan treats as MAYBE.
func (v CondVerdict) Result() Decision { return Decision(v & 3) }
