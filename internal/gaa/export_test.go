package gaa

import (
	"context"

	"gaaapi/internal/eacl"
)

// ReferenceCheck is CheckAuthorization with the reference scan and
// request-result phase (reference_test.go) in place of the compiled
// ones. It is the seam through which the external differential suite
// reaches the oracle.
func (a *API) ReferenceCheck(ctx context.Context, p *Policy, req *Request) *Answer {
	r := *req
	r.Trace = a.trace || req.Trace
	if r.Time.IsZero() {
		r.Time = a.clock()
	}
	res, deciders := a.evaluatePolicy(ctx, p, &r)
	return a.referenceConclude(ctx, &r, &res, deciders)
}

// ReferenceExecutionControl is ExecutionControl interpreting ans.Mid.
func (a *API) ReferenceExecutionControl(ctx context.Context, ans *Answer, req *Request, usage ...Param) (Decision, []TraceEvent) {
	return a.referencePhase(ctx, ans, eacl.BlockMid, req, req.OpStatus, usage...)
}

// ReferencePostExecutionActions is PostExecutionActions interpreting
// ans.Post.
func (a *API) ReferencePostExecutionActions(ctx context.Context, ans *Answer, req *Request, opStatus Decision) (Decision, []TraceEvent) {
	return a.referencePhase(ctx, ans, eacl.BlockPost, req, opStatus, Param{
		Type: ParamOpStatusName, Authority: AuthorityAny, Value: opStatus.String(),
	})
}

// InvalidateCache drops every cached policy and, by moving the registry
// generation on, every compiled decision unit: the next check of any
// policy recompiles its units.
func (a *API) InvalidateCache() {
	if a.cache != nil {
		for i := range a.cache.sets {
			a.cache.sets[i].Store(nil)
		}
	}
	a.reg.gen.Add(1)
}
