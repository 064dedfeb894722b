package conditions

// Axis is the request dimension a condition reads: none (the threat
// level, a counter, ambient state, or no built-in), the user, a group
// membership, the client address (a host list reads the client host
// first), the request line, the time, or an integer parameter.
type Axis int

const (
	AxisNone Axis = iota
	AxisUser
	AxisGroup
	AxisAddress
	AxisLine
	AxisTime
	AxisInt
)

// Atoms are the cells a condition's value cuts its axis into, read by
// the condition's own parse: what a static reasoner needs to build
// requests on either side of every cut.
type Atoms struct {
	Axis Axis
	// Ambient: the truth depends on state outside the request (a
	// file's contents), so it is not repeatable.
	Ambient bool
	// Globs are the '*'-globs of a user, host, location or request-line
	// list; Exprs are a request-line list's "re:" expressions, without
	// the prefix, and a location list's CIDR blocks, each the anchored
	// expression of the strings net.ParseIP places in it. The list
	// matches when one of them does.
	Globs, Exprs []string
	Group        string
	Window       TimeWindow
	// Param, Op and Bound are a comparison: the parameter, the
	// comparator token and the integer bound.
	Param, Op string
	Bound     int64
}

// atomizer is a built-in evaluator that declares its condition's atoms
// by running the condition's parse.
type atomizer interface {
	atoms(value string) (Atoms, error)
}

// AtomsOf returns the atoms of a value of the named built-in condition
// type, beside the error of the parse the type's evaluator runs first:
// a value it rejects is MAYBE for every request, and has its axis and
// no cells. A type without a value language (signature, redirect, or
// no built-in) has no atoms and no error. The value is read as it
// stands: an '@' runtime reference is the caller's to resolve first.
func AtomsOf(condType, value string) (Atoms, error) {
	ev, _ := Builtin(condType, Deps{})
	at, ok := ev.(atomizer)
	if !ok {
		return Atoms{}, nil
	}
	a, err := at.atoms(value)
	if err != nil {
		return Atoms{Axis: a.Axis, Ambient: a.Ambient}, err
	}
	return a, nil
}
