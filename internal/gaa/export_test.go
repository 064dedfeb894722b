package gaa

import "context"

// ReferenceCheck is CheckAuthorization with the reference scan
// (reference_test.go) in place of the compiled walk; everything around
// the scan (request state, request-result phase, mid/post collection)
// is the production code. It is the seam through which the external
// differential suite reaches the oracle.
func (a *API) ReferenceCheck(ctx context.Context, p *Policy, req *Request) *Answer {
	ans := new(Answer)
	st := a.getState(req)
	res := a.evaluatePolicy(ctx, p, &st.req, st)
	a.conclude(ctx, st, &res, ans)
	return ans
}
