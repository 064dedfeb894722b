package gaa

import (
	"context"
	"sync"
	"sync/atomic"

	"gaaapi/internal/eacl"
)

// Evaluator evaluates one condition kind. Implementations are
// registered with the API under a (condition type, defining authority)
// pair; the GAA-API "is structured to support the addition of modules
// for evaluation of new conditions" (paper section 5).
//
// req, with its Params and Rights, is valid only during Evaluate: the
// engine recycles it, and the later phases' parameter list with it. A
// value is borrowed too (a server writes the request line and the
// numbers into its pooled buffers): copy it, strings.Clone, to keep it.
type Evaluator interface {
	Evaluate(ctx context.Context, cond eacl.Condition, req *Request) Outcome
}

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(ctx context.Context, cond eacl.Condition, req *Request) Outcome

// Evaluate implements Evaluator.
func (f EvaluatorFunc) Evaluate(ctx context.Context, cond eacl.Condition, req *Request) Outcome {
	return f(ctx, cond, req)
}

// registry stores condition evaluators by type, then authority, with
// two-step lookup: exact (type, authority), then (type, "*"). Lookups
// run once per condition per request: one string hash finds the type,
// and its few authorities are a small map. The maps are published
// through an atomic pointer and read without locking; registration
// (rare, usually at startup) serializes on a mutex and publishes copies.
type registry struct {
	mu    sync.Mutex // writers only
	evals atomic.Pointer[map[string]map[string]Evaluator]
	// gen counts registrations. Compiled decision programs record the
	// generation they were built against and recompile on mismatch, so a
	// late registration invalidates every program that resolved (or
	// failed to resolve) an evaluator from the older map.
	gen atomic.Uint64
}

func newRegistry() *registry {
	r := &registry{}
	m := make(map[string]map[string]Evaluator)
	r.evals.Store(&m)
	return r
}

func (r *registry) register(condType, defAuth string, ev Evaluator) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.evals.Load()
	next := make(map[string]map[string]Evaluator, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	byAuth := make(map[string]Evaluator, len(old[condType])+1)
	for k, v := range old[condType] {
		byAuth[k] = v
	}
	byAuth[defAuth] = ev
	next[condType] = byAuth
	r.evals.Store(&next)
	// Bump after publishing the map: a program stamped with the new
	// generation is guaranteed to have compiled against the new map.
	r.gen.Add(1)
}

func (r *registry) generation() uint64 {
	return r.gen.Load()
}

func (r *registry) lookup(condType, defAuth string) (Evaluator, bool) {
	byAuth := (*r.evals.Load())[condType]
	if ev, ok := byAuth[defAuth]; ok {
		return ev, true
	}
	ev, ok := byAuth[AuthorityAny]
	return ev, ok
}

func (r *registry) known(condType, defAuth string) bool {
	_, ok := r.lookup(condType, defAuth)
	return ok
}
