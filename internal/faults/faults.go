// Package faults provides deterministic, seed-driven fault injectors
// for fault drills: wrappers that make any condition Evaluator or
// notify.Notifier exhibit latency, errors, panics, or hangs with
// configured probabilities. The supervision layer in internal/gaa and
// the retry/breaker wrapper in internal/notify are expected to absorb
// every injected fault — the chaos e2e suite and the gaa-bench fault
// drill assert exactly that.
//
// Injection decisions come from a single seeded PRNG, so a drill with
// a fixed seed and a serial workload replays the same fault sequence;
// under concurrency the per-call decisions stay seed-derived but their
// interleaving follows the scheduler.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/notify"
)

// ErrInjected marks a fault-drill error.
var ErrInjected = errors.New("faults: injected error")

// Spec configures per-call injection probabilities (each in [0,1],
// checked independently in the order hang, panic, error, latency; the
// first that fires wins, except latency which delays and passes
// through).
type Spec struct {
	// Hang blocks the call until its context is done.
	Hang float64
	// Panic raises a runtime panic.
	Panic float64
	// Error returns/attaches ErrInjected.
	Error float64
	// Latency sleeps LatencyDur (context-interruptible) before
	// delegating.
	Latency float64
	// LatencyDur is the injected delay (default 10ms when Latency>0).
	LatencyDur time.Duration
	// Disk makes a wrapped statestore filesystem misbehave: each write
	// or fsync fails with this probability (writes tear — only a prefix
	// lands — and fsyncs error), exercising the WAL's torn-tail
	// recovery and the journal's error accounting.
	Disk float64
}

// Active reports whether any injection can fire.
func (s Spec) Active() bool {
	return s.Hang > 0 || s.Panic > 0 || s.Error > 0 || s.Latency > 0 || s.Disk > 0
}

// String renders the spec in ParseSpec syntax.
func (s Spec) String() string {
	if !s.Active() {
		return "off"
	}
	var parts []string
	add := func(name string, p float64) {
		if p > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", name, p))
		}
	}
	add("hang", s.Hang)
	add("panic", s.Panic)
	add("error", s.Error)
	if s.Latency > 0 {
		parts = append(parts, fmt.Sprintf("latency=%g:%s", s.Latency, s.LatencyDur))
	}
	add("disk", s.Disk)
	return strings.Join(parts, ",")
}

// ParseSpec parses "hang=0.02,panic=0.05,error=0.1,latency=0.2:50ms".
// The latency duration suffix is optional (default 10ms). An empty
// string (or "off") yields the inactive zero Spec.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	text = strings.TrimSpace(text)
	if text == "" || text == "off" {
		return s, nil
	}
	for _, part := range strings.Split(text, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Spec{}, fmt.Errorf("faults: bad injector %q (want kind=probability)", part)
		}
		probText, durText, hasDur := strings.Cut(val, ":")
		p, err := strconv.ParseFloat(probText, 64)
		if err != nil || p < 0 || p > 1 {
			return Spec{}, fmt.Errorf("faults: bad probability %q for %s", probText, name)
		}
		switch name {
		case "hang":
			s.Hang = p
		case "panic":
			s.Panic = p
		case "error":
			s.Error = p
		case "latency":
			s.Latency = p
			if hasDur {
				d, err := time.ParseDuration(durText)
				if err != nil || d < 0 {
					return Spec{}, fmt.Errorf("faults: bad latency duration %q", durText)
				}
				s.LatencyDur = d
			}
		case "disk":
			s.Disk = p
		default:
			return Spec{}, fmt.Errorf("faults: unknown injector %q (want hang|panic|error|latency|disk)", name)
		}
		if hasDur && name != "latency" {
			return Spec{}, fmt.Errorf("faults: duration suffix only valid for latency, got %q", part)
		}
	}
	if s.Latency > 0 && s.LatencyDur == 0 {
		s.LatencyDur = 10 * time.Millisecond
	}
	return s, nil
}

// kind is one injection decision.
type kind int

const (
	passThrough kind = iota
	injectHang
	injectPanic
	injectError
	injectLatency
)

// Stats counts injections performed.
type Stats struct {
	Calls     uint64
	Hangs     uint64
	Panics    uint64
	Errors    uint64
	Latencies uint64
	// ShortWrites and SyncErrors count disk-fault injections (FS).
	ShortWrites uint64
	SyncErrors  uint64
}

// Injector rolls injection decisions from one seeded PRNG and wraps
// evaluators and notifiers. Safe for concurrent use.
type Injector struct {
	spec Spec

	mu  sync.Mutex
	rng *rand.Rand

	calls       atomic.Uint64
	hangs       atomic.Uint64
	panics      atomic.Uint64
	errors      atomic.Uint64
	latencies   atomic.Uint64
	shortWrites atomic.Uint64
	syncErrors  atomic.Uint64
}

// New returns an injector drawing from rand.NewSource(seed).
func New(seed int64, spec Spec) *Injector {
	return &Injector{spec: spec, rng: rand.New(rand.NewSource(seed))}
}

// Stats returns the injection counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Calls:       in.calls.Load(),
		Hangs:       in.hangs.Load(),
		Panics:      in.panics.Load(),
		Errors:      in.errors.Load(),
		Latencies:   in.latencies.Load(),
		ShortWrites: in.shortWrites.Load(),
		SyncErrors:  in.syncErrors.Load(),
	}
}

// decide rolls the next injection decision.
func (in *Injector) decide() kind {
	in.calls.Add(1)
	if !in.spec.Active() {
		return passThrough
	}
	in.mu.Lock()
	r := in.rng.Float64()
	in.mu.Unlock()
	// One roll walks the cumulative ladder so a single seeded stream
	// fully determines the decision sequence.
	switch c := in.spec; {
	case r < c.Hang:
		in.hangs.Add(1)
		return injectHang
	case r < c.Hang+c.Panic:
		in.panics.Add(1)
		return injectPanic
	case r < c.Hang+c.Panic+c.Error:
		in.errors.Add(1)
		return injectError
	case r < c.Hang+c.Panic+c.Error+c.Latency:
		in.latencies.Add(1)
		return injectLatency
	default:
		return passThrough
	}
}

// sleep waits for the injected latency, interruptible by ctx.
func (in *Injector) sleep(ctx context.Context) error {
	t := time.NewTimer(in.spec.LatencyDur)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Evaluator wraps ev with fault injection. Intended to be installed
// via gaa.WithEvaluatorWrapper so the supervision layer sits above the
// injected faults.
func (in *Injector) Evaluator(ev gaa.Evaluator) gaa.Evaluator {
	return gaa.EvaluatorFunc(func(ctx context.Context, cond eacl.Condition, req *gaa.Request) gaa.Outcome {
		switch in.decide() {
		case injectHang:
			// Hang until the supervisor (or the request) cuts us off.
			<-ctx.Done()
			return gaa.UnevaluatedOutcome("faults: hang cut off: " + ctx.Err().Error())
		case injectPanic:
			panic("faults: injected panic")
		case injectError:
			return gaa.Outcome{Err: ErrInjected}
		case injectLatency:
			if err := in.sleep(ctx); err != nil {
				return gaa.UnevaluatedOutcome("faults: latency cut off: " + err.Error())
			}
		}
		return ev.Evaluate(ctx, cond, req)
	})
}

// Notifier wraps n with fault injection; pair it with notify.Reliable
// so injected panics and errors are retried/broken instead of crashing
// the delivery path.
func (in *Injector) Notifier(n notify.Notifier) notify.Notifier {
	return notifierFunc(func(ctx context.Context, m notify.Message) error {
		switch in.decide() {
		case injectHang:
			<-ctx.Done()
			return ctx.Err()
		case injectPanic:
			panic("faults: injected notifier panic")
		case injectError:
			return ErrInjected
		case injectLatency:
			if err := in.sleep(ctx); err != nil {
				return err
			}
		}
		return n.Notify(ctx, m)
	})
}

// notifierFunc adapts a function to notify.Notifier.
type notifierFunc func(ctx context.Context, m notify.Message) error

func (f notifierFunc) Notify(ctx context.Context, m notify.Message) error { return f(ctx, m) }
