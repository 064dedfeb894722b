package execctl

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gaaapi/internal/gaa"
)

// The tests below hold Run's fence: the periodic checks come from a
// timer, and none may start once Run has returned — the server's guard
// recycles the state its check reads right after (httpd.Verdict). Run
// them under -race.

// TestRunNoCheckAfterReturn: op outlasts several intervals, so periodic
// checks run while it does; once Run returns, check sees no call for
// five intervals more.
func TestRunNoCheckAfterReturn(t *testing.T) {
	const interval = 500 * time.Microsecond
	var late, periodic atomic.Int32
	for i := 0; i < 20; i++ {
		var returned atomic.Bool
		res := Run(context.Background(), NewUsage(nil),
			func(context.Context, *Usage) error {
				time.Sleep(10 * interval)
				return nil
			},
			func(Snapshot) gaa.Decision {
				if returned.Load() {
					late.Add(1)
				}
				return gaa.Yes
			},
			interval)
		returned.Store(true)
		periodic.Add(int32(res.Checks - 1)) // less the final check
	}
	time.Sleep(5 * interval)
	if n := late.Load(); n != 0 {
		t.Errorf("%d checks ran after Run returned", n)
	}
	if periodic.Load() == 0 {
		t.Error("no periodic check ran while op outlasted its interval; the fence was not exercised")
	}
}

// TestRunRecycledMonitorChecksOnlyItsOperation runs operations in
// pairs, back to back, so the second gets the first one's pooled
// monitor while the first one's timer may just have fired. The second
// has an hour-long interval: any check of it besides its final one is
// a late tick of the first reaching it. Every check sees its own
// operation's usage, never the previous one's.
func TestRunRecycledMonitorChecksOnlyItsOperation(t *testing.T) {
	const interval = 50 * time.Microsecond
	op := func(context.Context, *Usage) error {
		time.Sleep(interval) // return around the first tick
		return nil
	}
	checkOf := func(mem int64, returned *atomic.Bool) Check {
		return func(s Snapshot) gaa.Decision {
			if returned.Load() {
				t.Errorf("operation using %d checked after its Run returned", mem)
			}
			if s.MemBytes != mem {
				t.Errorf("operation using %d checked with usage %d", mem, s.MemBytes)
			}
			return gaa.Yes
		}
	}
	for i := int64(1); i <= 400; i++ {
		var firstDone, secondDone atomic.Bool
		first, second := NewUsage(nil), NewUsage(nil)
		first.AddMem(2 * i)
		second.AddMem(2*i + 1)
		Run(context.Background(), first, op, checkOf(2*i, &firstDone), interval)
		firstDone.Store(true)
		res := Run(context.Background(), second, op, checkOf(2*i+1, &secondDone), time.Hour)
		secondDone.Store(true)
		if res.Checks != 1 {
			t.Fatalf("pair %d: the second operation was checked %d times, want only its final check", i, res.Checks)
		}
	}
	time.Sleep(10 * interval)
}

// TestRunStartsNoGoroutine: the operation runs on the caller's
// goroutine and the idle timer is no goroutine either.
func TestRunStartsNoGoroutine(t *testing.T) {
	yes := func(Snapshot) gaa.Decision { return gaa.Yes }
	for attempt := 0; attempt < 5; attempt++ {
		// Another test's finishing goroutines can move the count; one
		// quiet attempt decides.
		before, during := runtime.NumGoroutine(), -1
		Run(context.Background(), NewUsage(nil), func(context.Context, *Usage) error {
			during = runtime.NumGoroutine()
			return nil
		}, yes, time.Hour)
		if during == before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Error("a goroutine was started per monitored operation")
}

// TestRunPanickingOpLeavesNothingArmed: a panic in op unwinds through
// Run to the caller, and the timer is disarmed on the way.
func TestRunPanickingOpLeavesNothingArmed(t *testing.T) {
	const interval = 100 * time.Microsecond
	var returned atomic.Bool
	var late atomic.Int32
	func() {
		defer func() {
			if r := recover(); r != "script bug" {
				t.Errorf("recovered %v, want the operation's panic", r)
			}
		}()
		Run(context.Background(), NewUsage(nil),
			func(context.Context, *Usage) error {
				time.Sleep(3 * interval)
				panic("script bug")
			},
			func(Snapshot) gaa.Decision {
				if returned.Load() {
					late.Add(1)
				}
				return gaa.Yes
			},
			interval)
	}()
	returned.Store(true)
	time.Sleep(10 * interval)
	if n := late.Load(); n != 0 {
		t.Errorf("%d checks ran after the panicking operation unwound", n)
	}
	// The next operation is monitored as usual.
	res := Run(context.Background(), NewUsage(nil),
		func(_ context.Context, u *Usage) error { u.AddOutput(1 << 20); return nil },
		func(s Snapshot) gaa.Decision {
			if s.OutputBytes > 4096 {
				return gaa.No
			}
			return gaa.Yes
		},
		interval)
	if !res.Violated {
		t.Errorf("result after a panic = %+v, want the violation caught", res)
	}
}

func emptyOp(context.Context, *Usage) error { return nil }

func alwaysYes(Snapshot) gaa.Decision { return gaa.Yes }
