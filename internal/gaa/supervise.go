package gaa

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"gaaapi/internal/eacl"
)

// FaultKind classifies how a supervised evaluation degraded. The
// tri-state semantics make MAYBE the principled answer when a condition
// is left unevaluated (paper section 2); supervision extends that to
// evaluators that crash, hang or error: the request keeps flowing and
// the fault is recorded instead of killing the request.
type FaultKind int

const (
	// FaultNone: the evaluation completed normally.
	FaultNone FaultKind = iota
	// FaultPanic: the evaluator panicked and was recovered.
	FaultPanic
	// FaultTimeout: the evaluator exceeded the per-evaluator deadline
	// (WithEvaluatorTimeout) or the request context was cancelled.
	FaultTimeout
	// FaultError: the evaluator returned an error without asserting NO;
	// fail-safe degrades it to MAYBE.
	FaultError
	// FaultInvalid: the evaluator returned a decision outside
	// {Yes, No, Maybe}.
	FaultInvalid
)

// String returns a symbolic name for the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultPanic:
		return "panic"
	case FaultTimeout:
		return "timeout"
	case FaultError:
		return "error"
	case FaultInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault records one degraded condition evaluation with its structured
// reason. Faults ride on the Answer so operators (and the chaos tests)
// can tell a policy MAYBE from a degraded-mode MAYBE.
type Fault struct {
	// Cond is the condition whose evaluation degraded.
	Cond eacl.Condition
	// Kind is the degradation class.
	Kind FaultKind
	// Reason is the human-readable explanation; never empty.
	Reason string
}

// WithEvaluatorTimeout bounds every supervised evaluator call: an
// evaluator that does not return within d is cut off and its condition
// degrades to MAYBE/unevaluated with a FaultTimeout reason. The zero
// (default) disables the deadline and keeps evaluation synchronous and
// allocation-free; with a deadline each call costs a goroutine, so the
// knob is meant for deployments whose evaluators consult external
// services.
func WithEvaluatorTimeout(d time.Duration) Option {
	return optionFunc(func(a *API) { a.evalTimeout = d })
}

// WithEvaluatorWrapper interposes wrap on every evaluator subsequently
// registered, underneath the supervision layer (so faults the wrapper
// injects are recovered and degraded like any evaluator fault). It is
// the seam the internal/faults injectors use for fault drills.
func WithEvaluatorWrapper(wrap func(Evaluator) Evaluator) Option {
	return optionFunc(func(a *API) { a.wrapEval = wrap })
}

// SupervisionStats counts degraded-mode events since the API was
// built. Retrieve with API.SupervisionStats.
type SupervisionStats struct {
	// Panics is the number of evaluator panics recovered.
	Panics uint64
	// Timeouts is the number of evaluator calls cut off at the
	// deadline (or cancelled with the request context).
	Timeouts uint64
	// Errors is the number of evaluator errors degraded to MAYBE.
	Errors uint64
	// Invalid is the number of out-of-range decisions normalized.
	Invalid uint64
}

// supervisionCounters is the hot-path representation of
// SupervisionStats.
type supervisionCounters struct {
	panics   atomic.Uint64
	timeouts atomic.Uint64
	errors   atomic.Uint64
	invalid  atomic.Uint64
}

func (c *supervisionCounters) snapshot() SupervisionStats {
	return SupervisionStats{
		Panics:   c.panics.Load(),
		Timeouts: c.timeouts.Load(),
		Errors:   c.errors.Load(),
		Invalid:  c.invalid.Load(),
	}
}

// SupervisionStats returns the degraded-mode counters.
func (a *API) SupervisionStats() SupervisionStats {
	return a.sup.snapshot()
}

// supervise wraps an evaluator being registered with the API's fault
// wrapper (fault drills) and the supervision layer.
func (a *API) supervise(ev Evaluator) Evaluator {
	if a.wrapEval != nil {
		ev = a.wrapEval(ev)
	}
	return supervised{api: a, inner: ev}
}

// supervised enforces the contract evaluateCondition relies on: the
// wrapped call never panics, never hangs past the configured deadline,
// and always yields a valid tri-state Outcome; every degradation is
// tagged with a FaultKind and a non-empty reason.
type supervised struct {
	api   *API
	inner Evaluator
}

// Evaluate implements Evaluator.
func (s supervised) Evaluate(ctx context.Context, cond eacl.Condition, req *Request) Outcome {
	if s.api.evalTimeout > 0 {
		return s.evaluateDeadline(ctx, cond, req)
	}
	return s.normalize(s.call(ctx, cond, req))
}

// call invokes the inner evaluator with panic recovery.
func (s supervised) call(ctx context.Context, cond eacl.Condition, req *Request) (out Outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = s.api.recoverPanic(r)
		}
	}()
	return s.inner.Evaluate(ctx, cond, req)
}

// recoverPanic builds the supervised panic outcome; the compiled
// engine's hoisted tests share it so a panicking dependency degrades
// identically on both paths.
func (a *API) recoverPanic(r any) Outcome {
	a.sup.panics.Add(1)
	reason := fmt.Sprintf("evaluator panic: %v", r)
	return Outcome{
		Result:      Maybe,
		Unevaluated: true,
		Fault:       FaultPanic,
		Detail:      reason,
		Err:         fmt.Errorf("%s", reason),
	}
}

// evaluateDeadline runs the evaluator in a goroutine and cuts it off at
// the deadline. The goroutine receives a private copy of the request:
// the engine's pooled Request is recycled when the phase returns, and
// an abandoned evaluator must never observe the recycled state.
func (s supervised) evaluateDeadline(parent context.Context, cond eacl.Condition, req *Request) Outcome {
	d := s.api.evalTimeout
	ctx, cancel := context.WithTimeout(parent, d)
	defer cancel()

	reqCopy := new(Request)
	*reqCopy = *req
	// Deep-copy the slices too: servers pool the Params/Rights backing
	// arrays per request, and an abandoned evaluator must not observe
	// them being rewritten for the next request.
	reqCopy.Params = append(ParamList(nil), req.Params...)
	reqCopy.Rights = append([]eacl.Right(nil), req.Rights...)
	// The values are borrowed as well (Evaluator): copy them, in one
	// allocation.
	size := 0
	for _, p := range req.Params {
		size += len(p.Value)
	}
	var text strings.Builder
	text.Grow(size)
	for _, p := range req.Params {
		text.WriteString(p.Value)
	}
	all := text.String()
	for i := range reqCopy.Params {
		n := len(reqCopy.Params[i].Value)
		reqCopy.Params[i].Value, all = all[:n], all[n:]
	}
	ch := make(chan Outcome, 1)
	go func() {
		ch <- s.call(ctx, cond, reqCopy)
	}()
	select {
	case out := <-ch:
		return s.normalize(out)
	case <-ctx.Done():
		s.api.sup.timeouts.Add(1)
		reason := fmt.Sprintf("evaluator timed out after %v", d)
		if err := parent.Err(); err != nil {
			reason = fmt.Sprintf("evaluation cancelled: %v", err)
		}
		return Outcome{
			Result:      Maybe,
			Unevaluated: true,
			Fault:       FaultTimeout,
			Detail:      reason,
			Err:         ctx.Err(),
		}
	}
}

// normalize enforces the Outcome contract on results the inner
// evaluator produced itself (fault outcomes built above are already
// well-formed): an error cannot assert YES or MAYBE-as-met, and the
// decision must be one of the three states.
func (s supervised) normalize(out Outcome) Outcome {
	if out.Fault != FaultNone {
		return out
	}
	if out.Err != nil && out.Result != No {
		s.api.sup.errors.Add(1)
		out.Result = Maybe
		out.Unevaluated = true
		out.Fault = FaultError
		if out.Detail == "" {
			out.Detail = "evaluator error: " + out.Err.Error()
		}
		return out
	}
	switch out.Result {
	case Yes, No, Maybe:
		return out
	default:
		s.api.sup.invalid.Add(1)
		reason := fmt.Sprintf("evaluator returned invalid decision %d", int(out.Result))
		return Outcome{
			Result:      Maybe,
			Unevaluated: true,
			Fault:       FaultInvalid,
			Detail:      reason,
			Err:         fmt.Errorf("%s", reason),
		}
	}
}

// faultReason returns the structured reason for a degraded outcome,
// guaranteed non-empty when Fault is set.
func (o Outcome) faultReason() string {
	if o.Detail != "" {
		return o.Detail
	}
	if o.Err != nil {
		return o.Err.Error()
	}
	return "evaluator fault: " + o.Fault.String()
}
