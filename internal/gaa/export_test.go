package gaa

import (
	"context"

	"gaaapi/internal/eacl"
)

// ReferenceCheck is CheckAuthorization by the specification (spec.go),
// each entry evaluated as the scan reaches it. It is the seam through
// which the external differential suite reaches the oracle.
func (a *API) ReferenceCheck(ctx context.Context, p *Policy, req *Request) *Answer {
	ans, _ := a.SpecCheck(ctx, p, req, nil, nil)
	return &ans
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

// referencePhase is ExecutionControl (block mid) or
// PostExecutionActions (block post) interpreting ans.Mid or ans.Post
// with the specification's block evaluation.
func (a *API) referencePhase(ctx context.Context, ans *Answer, b eacl.Block, req *Request, opStatus Decision, extra ...Param) (Decision, []TraceEvent) {
	conds, source := ans.Mid, "mid"
	if b == eacl.BlockPost {
		conds, source = ans.Post, "post"
	}
	if len(conds) == 0 {
		return Yes, nil
	}
	r := *req
	if r.Time.IsZero() {
		r.Time = a.clock()
	}
	r.Decision, r.OpStatus = ans.Decision, opStatus
	r.Params = append(append(ParamList(nil), req.Params...), extra...)
	var trace []TraceEvent
	dec, _ := a.specBlock(ctx, source, 0, conds, b, &r, &trace, nil)
	return dec, trace
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
