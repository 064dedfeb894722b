package gaa

import (
	"time"

	"gaaapi/internal/eacl"
)

// Request is the authorization request handed to the GAA-API: the
// rights the application asks about plus the context parameters
// extracted from the application request (paper section 6, step 2b).
type Request struct {
	// Rights the caller requests; an EACL entry is considered when its
	// right matches any of them. Sign on requested rights is ignored.
	Rights []eacl.Right
	// Params carries typed context (client address, URI, input length,
	// usage counters during execution control, ...).
	Params ParamList
	// Time is the request time; the zero value means the API clock.
	Time time.Time

	// Decision is filled in by the engine before request-result
	// conditions run, so their on:success/on:failure triggers can see
	// whether the authorization request was granted.
	Decision Decision
	// OpStatus is filled in before post-conditions run: whether the
	// requested operation itself succeeded.
	OpStatus Decision

	// Trace asks the specification (SpecCheck) for a full evaluation
	// trace of this request (cmd/eaclint -explain), and evaluators for
	// their worded details. The compiled engine decides a traced request
	// as an untraced one and traces a degraded evaluation's alone.
	Trace bool

	// Label, when set, is the single requested right spelt
	// "<DefAuth> <Value>", as an audit record names it.
	// Policy.RightLabel returns one that lives in the policy's rights
	// memo, so later requests for that right need not build it.
	Label string
	// URIPlain, when set, promises that the ParamRequestURI value is
	// one PlainASCII accepts, so an action quoting it need not scan
	// it again.
	URIPlain bool
}

// FirstRight returns the first requested right spelt "<DefAuth>
// <Value>": Label when it spells that right, which then costs nothing,
// a new string otherwise; "" when no right is requested.
func (r *Request) FirstRight() string {
	if len(r.Rights) == 0 {
		return ""
	}
	x := &r.Rights[0]
	if joins(r.Label, x.DefAuth, x.Value) {
		return r.Label
	}
	return x.DefAuth + " " + x.Value
}

// NewRequest builds a request for a single right.
func NewRequest(defAuth, rightValue string, params ...Param) *Request {
	return &Request{
		Rights: []eacl.Right{{Sign: eacl.Pos, DefAuth: defAuth, Value: rightValue}},
		Params: ParamList(params),
	}
}
