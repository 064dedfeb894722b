// Package execctl implements the paper's execution control phase (the
// unfinished section 6 step 3, listed as future work in section 9): the
// requested operation runs under resource accounting while the GAA-API
// mid-conditions are re-checked periodically; a violated mid-condition
// aborts the operation in real time ("a user process consumes excessive
// system resources", section 1).
package execctl

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"gaaapi/internal/gaa"
)

// Usage is the resource accounting for one running operation. The
// operation (e.g. a simulated CGI script) credits its consumption;
// snapshots are read concurrently by the monitor. All methods are safe
// for concurrent use.
type Usage struct {
	start time.Time
	clock func() time.Time

	cpuMillis   atomic.Int64
	memBytes    atomic.Int64
	outputBytes atomic.Int64
}

// NewUsage starts accounting at now(); a nil clock means time.Now.
func NewUsage(clock func() time.Time) *Usage {
	u := new(Usage)
	u.Reset(clock)
	return u
}

// Reset restarts accounting at clock() (nil means time.Now), zeroing
// all counters, so servers can pool Usage values across requests.
// Must not be called while an operation is still crediting usage.
func (u *Usage) Reset(clock func() time.Time) {
	if clock == nil {
		clock = time.Now
	}
	u.clock = clock
	u.start = clock()
	u.cpuMillis.Store(0)
	u.memBytes.Store(0)
	u.outputBytes.Store(0)
}

// AddCPU credits simulated CPU consumption.
func (u *Usage) AddCPU(d time.Duration) { u.cpuMillis.Add(d.Milliseconds()) }

// AddMem credits memory consumption.
func (u *Usage) AddMem(bytes int64) { u.memBytes.Add(bytes) }

// AddOutput credits bytes written to the client.
func (u *Usage) AddOutput(bytes int64) { u.outputBytes.Add(bytes) }

// Snapshot captures current consumption.
func (u *Usage) Snapshot() Snapshot {
	return Snapshot{
		CPUMillis:   u.cpuMillis.Load(),
		WallMillis:  u.clock().Sub(u.start).Milliseconds(),
		MemBytes:    u.memBytes.Load(),
		OutputBytes: u.outputBytes.Load(),
	}
}

// Snapshot is a point-in-time usage reading.
type Snapshot struct {
	CPUMillis   int64
	WallMillis  int64
	MemBytes    int64
	OutputBytes int64
}

// Params renders the snapshot as GAA request parameters for
// mid-condition evaluation (mid_cond_quota local cpu_ms<=50 ...).
func (s Snapshot) Params() []gaa.Param {
	ps, _ := s.AppendParams(make([]gaa.Param, 0, 4), make([]byte, 0, 4*20))
	return ps
}

// AppendParams is Params appending to dst, with the values written
// after digits' contents: caller's reused buffers. The values are
// borrowed from the digits it returns, valid until that room is
// written again.
func (s Snapshot) AppendParams(dst []gaa.Param, digits []byte) ([]gaa.Param, []byte) {
	var ends [4]int
	start := len(digits)
	for i, n := range [...]int64{s.CPUMillis, s.WallMillis, s.MemBytes, s.OutputBytes} {
		digits = strconv.AppendInt(digits, n, 10)
		ends[i] = len(digits)
	}
	text := unsafe.String(unsafe.SliceData(digits), len(digits))
	for i, typ := range [...]string{gaa.ParamCPUMillis, gaa.ParamWallMillis, gaa.ParamMemBytes, gaa.ParamOutputBytes} {
		dst = append(dst, gaa.Param{Type: typ, Authority: gaa.AuthorityAny, Value: text[start:ends[i]]})
		start = ends[i]
	}
	return dst, digits
}

// ErrAborted is returned (wrapped) when a mid-condition violation
// aborted the operation.
var ErrAborted = errors.New("operation aborted: mid-condition violated")

// Check evaluates the mid-conditions against a usage snapshot: Yes to
// continue, No to abort.
type Check func(Snapshot) gaa.Decision

// Result reports how a monitored operation ended.
type Result struct {
	// Err is the operation error; errors.Is(Err, ErrAborted) when a
	// mid-condition violation stopped it.
	Err error
	// Violated reports whether a mid-condition violation occurred
	// (even if the operation finished before noticing cancellation).
	Violated bool
	// Checks counts how many mid-condition evaluations ran.
	Checks int
	// Final is the usage at completion.
	Final Snapshot
}

// OpStatus maps the result to the paper's operation status for the
// post-execution phase.
func (r Result) OpStatus() gaa.Decision {
	if r.Err != nil || r.Violated {
		return gaa.No
	}
	return gaa.Yes
}

// Run executes op on the caller's goroutine under usage accounting
// while check is evaluated every interval; a No verdict cancels op's
// context and Run returns with ErrAborted. A final check runs after
// completion so violations faster than the interval are still
// recorded. A nil check disables monitoring (the paper's phase with no
// mid-conditions): op gets ctx itself. The periodic checks come from a
// timer, one at a time, and none starts after Run returns, even if op
// panics.
//
// The context op receives is valid until op returns: a monitored run's
// is its pooled monitor, which the next run reuses. Used later, it
// reports done with context.Canceled and follows no parent.
func Run(ctx context.Context, u *Usage, op func(context.Context, *Usage) error, check Check, interval time.Duration) Result {
	if interval <= 0 {
		interval = time.Millisecond
	}
	if check == nil {
		return Result{Err: op(ctx, u), Final: u.Snapshot()}
	}
	m := monitorPool.Get().(*monitor)
	m.ctxMu.Lock()
	m.parent, m.over, m.err, m.ch, m.stop = ctx, false, nil, nil, nil
	m.ctxMu.Unlock()
	m.mu.Lock()
	m.done, m.inflight, m.res = false, false, Result{}
	m.interval, m.u, m.check = interval, u, check
	if m.timer == nil {
		m.timer = time.AfterFunc(interval, m.tick)
	} else {
		m.timer.Reset(interval)
	}
	m.mu.Unlock()
	err := m.run(op)
	res := m.res
	if !m.inflight { // else the fired callback will find done set; m is the GC's
		monitorPool.Put(m)
	}
	res.Final = u.Snapshot()
	if !res.Violated {
		// Final check: a violation that the operation outran is still a
		// violation (and fails the operation status).
		res.Checks++
		res.Violated = check(res.Final) == gaa.No
	} else if errors.Is(err, context.Canceled) {
		err = nil
	}
	if res.Violated && err == nil {
		err = ErrAborted
	}
	res.Err = err
	return res
}

// monitor is the periodic half of a monitored Run, pooled: one timer,
// re-armed after each check, whose callback checks under mu. It is also
// the operation's context, cancelled by a violation or with its parent,
// so a run makes no context of its own. The context's state has its own
// lock, taken inside mu by a check that cancels, so Done and Err never
// wait on a check in progress.
type monitor struct {
	mu       sync.Mutex
	timer    *time.Timer
	done     bool // op returned: no check starts any more
	inflight bool // a fired callback was still waiting for mu then
	res      Result
	interval time.Duration
	u        *Usage
	check    Check

	ctxMu  sync.Mutex
	parent context.Context
	over   bool          // op returned: the context is done for good
	err    error         // set once the context is cancelled
	ch     chan struct{} // Done's channel, made by its first call
	stop   func() bool   // unregisters the parent's cancellation from ch
}

var monitorPool = sync.Pool{New: func() any { return new(monitor) }}

// closedChan is the Done channel of a context whose run is over.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// tick is the timer's callback: one check, then the next one armed,
// unless the operation returned or the check said No.
func (m *monitor) tick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return
	}
	m.res.Checks++
	if m.res.Violated = m.check(m.u.Snapshot()) == gaa.No; m.res.Violated {
		m.ctxMu.Lock()
		m.cancel(context.Canceled)
		m.ctxMu.Unlock()
	} else {
		m.timer.Reset(m.interval)
	}
}

// run runs op, then sets done and stops the timer, even if op panics.
// Each earlier callback re-armed the timer or recorded a violation, so
// a timer that will not stop, without a violation, is one in flight.
// The context is then over: a late caller (the watcher goroutine of a
// context derived from it, say) finds it done, not wired to the next
// run.
func (m *monitor) run(op func(context.Context, *Usage) error) error {
	defer func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.done = true
		m.inflight = !m.timer.Stop() && !m.res.Violated
		m.ctxMu.Lock()
		defer m.ctxMu.Unlock()
		if m.stop != nil {
			m.stop()
		}
		m.cancel(context.Canceled)
		m.parent, m.over, m.ch, m.stop = context.Background(), true, nil, nil
	}()
	return op(m, m.u)
}

// parentCtx returns the context this one defers to.
func (m *monitor) parentCtx() context.Context {
	m.ctxMu.Lock()
	defer m.ctxMu.Unlock()
	return m.parent
}

// Deadline implements context.Context: the parent's.
func (m *monitor) Deadline() (time.Time, bool) { return m.parentCtx().Deadline() }

// Value implements context.Context: the parent's.
func (m *monitor) Value(key any) any { return m.parentCtx().Value(key) }

// Done implements context.Context. The channel is made by the first
// call, and only then is the parent's cancellation wired to it: an
// operation that never waits on it costs no allocation.
func (m *monitor) Done() <-chan struct{} {
	m.ctxMu.Lock()
	defer m.ctxMu.Unlock()
	if m.over {
		return closedChan
	}
	if m.ch == nil {
		m.ch = make(chan struct{})
		if m.err != nil {
			close(m.ch)
		} else if m.parent.Done() != nil {
			ch := m.ch
			m.stop = context.AfterFunc(m.parent, func() {
				m.ctxMu.Lock()
				defer m.ctxMu.Unlock()
				if m.ch == ch { // else the run is over
					m.cancel(m.parent.Err())
				}
			})
		}
	}
	return m.ch
}

// Err implements context.Context.
func (m *monitor) Err() error {
	m.ctxMu.Lock()
	defer m.ctxMu.Unlock()
	if m.err == nil {
		if err := m.parent.Err(); err != nil {
			m.cancel(err)
		}
	}
	return m.err
}

// cancel cancels the context with err, once; the caller holds ctxMu.
func (m *monitor) cancel(err error) {
	if m.err == nil {
		m.err = err
		if m.ch != nil {
			close(m.ch)
		}
	}
}
