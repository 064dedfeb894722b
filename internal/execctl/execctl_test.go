package execctl

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gaaapi/internal/gaa"
)

func TestUsageAccounting(t *testing.T) {
	base := time.Unix(1000, 0)
	now := base
	u := NewUsage(func() time.Time { return now })
	u.AddCPU(25 * time.Millisecond)
	u.AddMem(2048)
	u.AddOutput(100)
	u.AddOutput(50)
	now = base.Add(300 * time.Millisecond)

	s := u.Snapshot()
	if s.CPUMillis != 25 || s.MemBytes != 2048 || s.OutputBytes != 150 || s.WallMillis != 300 {
		t.Errorf("snapshot = %+v", s)
	}

	ps := gaa.ParamList(s.Params())
	if v, _ := ps.GetInt(gaa.ParamCPUMillis, gaa.AuthorityAny); v != 25 {
		t.Errorf("cpu param = %d", v)
	}
	if v, _ := ps.GetInt(gaa.ParamOutputBytes, gaa.AuthorityAny); v != 150 {
		t.Errorf("output param = %d", v)
	}
	if v, _ := ps.GetInt(gaa.ParamWallMillis, gaa.AuthorityAny); v != 300 {
		t.Errorf("wall param = %d", v)
	}
	if v, _ := ps.GetInt(gaa.ParamMemBytes, gaa.AuthorityAny); v != 2048 {
		t.Errorf("mem param = %d", v)
	}
}

func TestRunCompletesWithoutViolation(t *testing.T) {
	u := NewUsage(nil)
	res := Run(context.Background(), u,
		func(_ context.Context, u *Usage) error {
			u.AddOutput(10)
			return nil
		},
		func(Snapshot) gaa.Decision { return gaa.Yes },
		time.Millisecond)
	if res.Err != nil || res.Violated {
		t.Errorf("result = %+v", res)
	}
	if res.OpStatus() != gaa.Yes {
		t.Errorf("OpStatus = %v, want yes", res.OpStatus())
	}
	if res.Final.OutputBytes != 10 {
		t.Errorf("final usage = %+v", res.Final)
	}
	if res.Checks == 0 {
		t.Error("final check did not run")
	}
}

func TestRunAbortsRunawayOperation(t *testing.T) {
	u := NewUsage(nil)
	started := make(chan struct{})
	res := Run(context.Background(), u,
		func(ctx context.Context, u *Usage) error {
			close(started)
			// A runaway CGI: consumes CPU until cancelled.
			for {
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(time.Millisecond):
					u.AddCPU(10 * time.Millisecond)
				}
			}
		},
		func(s Snapshot) gaa.Decision {
			if s.CPUMillis > 50 {
				return gaa.No
			}
			return gaa.Yes
		},
		time.Millisecond)
	<-started
	if !res.Violated {
		t.Fatalf("result = %+v, want violation", res)
	}
	if !errors.Is(res.Err, ErrAborted) {
		t.Errorf("err = %v, want ErrAborted", res.Err)
	}
	if res.OpStatus() != gaa.No {
		t.Errorf("OpStatus = %v, want no", res.OpStatus())
	}
}

func TestRunFinalCheckCatchesFastViolation(t *testing.T) {
	u := NewUsage(nil)
	// The operation finishes before any periodic tick but violates the
	// output quota; the final check must catch it.
	res := Run(context.Background(), u,
		func(_ context.Context, u *Usage) error {
			u.AddOutput(1 << 20)
			return nil
		},
		func(s Snapshot) gaa.Decision {
			if s.OutputBytes > 4096 {
				return gaa.No
			}
			return gaa.Yes
		},
		time.Hour) // periodic checks effectively disabled
	if !res.Violated {
		t.Fatalf("fast violation not caught: %+v", res)
	}
	if !errors.Is(res.Err, ErrAborted) {
		t.Errorf("err = %v, want ErrAborted", res.Err)
	}
}

func TestRunNilCheck(t *testing.T) {
	u := NewUsage(nil)
	res := Run(context.Background(), u,
		func(context.Context, *Usage) error { return nil },
		nil, time.Millisecond)
	if res.Err != nil || res.Violated || res.Checks != 0 {
		t.Errorf("result = %+v", res)
	}
}

func TestRunPropagatesOperationError(t *testing.T) {
	boom := errors.New("script crashed")
	u := NewUsage(nil)
	res := Run(context.Background(), u,
		func(context.Context, *Usage) error { return boom },
		func(Snapshot) gaa.Decision { return gaa.Yes },
		time.Millisecond)
	if !errors.Is(res.Err, boom) {
		t.Errorf("err = %v, want the operation error", res.Err)
	}
	if res.Violated {
		t.Error("no violation expected")
	}
	if res.OpStatus() != gaa.No {
		t.Errorf("OpStatus = %v, want no for a failed op", res.OpStatus())
	}
}

func TestRunParentContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	u := NewUsage(nil)
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	res := Run(ctx, u,
		func(ctx context.Context, _ *Usage) error {
			<-ctx.Done()
			return ctx.Err()
		},
		func(Snapshot) gaa.Decision { return gaa.Yes },
		time.Millisecond)
	if res.Err == nil {
		t.Error("want error after parent cancellation")
	}
}

func TestRunDefaultInterval(t *testing.T) {
	u := NewUsage(nil)
	res := Run(context.Background(), u,
		func(context.Context, *Usage) error { return nil },
		func(Snapshot) gaa.Decision { return gaa.Yes },
		0)
	if res.Err != nil {
		t.Errorf("err = %v", res.Err)
	}
}

// TestRunContextFollowsParentAndViolation: a monitored operation's
// context carries its parent's values and deadline, is live until a
// violation, and is then done with context.Canceled — for a channel
// asked for after the violation, and for a context derived from it.
func TestRunContextFollowsParentAndViolation(t *testing.T) {
	type key struct{}
	deadline := time.Now().Add(time.Hour)
	parent, cancel := context.WithDeadline(context.WithValue(context.Background(), key{}, "v"), deadline)
	defer cancel()
	res := Run(parent, NewUsage(nil),
		func(ctx context.Context, u *Usage) error {
			if ctx.Value(key{}) != "v" {
				t.Error("operation's context lost the parent's value")
			}
			if d, ok := ctx.Deadline(); !ok || !d.Equal(deadline) {
				t.Errorf("operation's deadline = %v, %v; want the parent's", d, ok)
			}
			if err := ctx.Err(); err != nil {
				t.Errorf("Err before any violation = %v", err)
			}
			child, stop := context.WithCancel(ctx)
			defer stop()
			u.AddCPU(time.Second) // violates at the first tick
			<-child.Done()
			if err := ctx.Err(); !errors.Is(err, context.Canceled) {
				t.Errorf("Err after the violation = %v, want context.Canceled", err)
			}
			select {
			case <-ctx.Done():
			default:
				t.Error("Done asked for after the violation is not closed")
			}
			return ctx.Err()
		},
		func(s Snapshot) gaa.Decision {
			if s.CPUMillis > 100 {
				return gaa.No
			}
			return gaa.Yes
		},
		time.Millisecond)
	if !res.Violated || !errors.Is(res.Err, ErrAborted) {
		t.Errorf("result = %+v, want the violation", res)
	}
}

// TestRunContextNotCarriedIntoNextRun: a context used after its
// operation returned — as context.WithCancel's watcher goroutine may,
// when its parent is not a context it can hook — is done and stays
// out of the next run on the same pooled monitor, whose context starts
// live and follows its own parent. Runs alternate between a first run
// that returns at once and one a violation stopped.
func TestRunContextNotCarriedIntoNextRun(t *testing.T) {
	overCPU := func(s Snapshot) gaa.Decision {
		if s.CPUMillis > 100 {
			return gaa.No
		}
		return gaa.Yes
	}
	for i := 0; i < 20; i++ {
		violated := i%2 == 1
		var stale context.Context
		Run(context.Background(), NewUsage(nil), func(ctx context.Context, u *Usage) error {
			stale = ctx
			if violated {
				u.AddCPU(time.Second)
				<-ctx.Done()
			}
			return nil
		}, overCPU, time.Millisecond)
		select {
		case <-stale.Done():
		default:
			t.Fatalf("run %d: a finished run's context is not done", i)
		}
		if !errors.Is(stale.Err(), context.Canceled) {
			t.Fatalf("run %d: a finished run's context has Err %v", i, stale.Err())
		}

		parent, cancel := context.WithCancel(context.Background())
		Run(parent, NewUsage(nil), func(ctx context.Context, _ *Usage) error {
			select {
			case <-ctx.Done():
				t.Fatalf("run %d: the next run's context starts done (%v)", i, ctx.Err())
			default:
			}
			cancel()
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
				t.Fatalf("run %d: the next run's context does not follow its parent", i)
			}
			if !errors.Is(ctx.Err(), context.Canceled) {
				t.Errorf("run %d: Err after the parent's cancellation = %v", i, ctx.Err())
			}
			return nil
		}, alwaysYes, time.Hour)
		cancel()
	}
}

// TestRunContextDoesNotWaitOnCheck: an operation polling its context
// gets an answer while a periodic check is still running.
func TestRunContextDoesNotWaitOnCheck(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	check := func(Snapshot) gaa.Decision {
		once.Do(func() {
			close(started)
			<-release
		})
		return gaa.Yes
	}
	Run(context.Background(), NewUsage(nil), func(ctx context.Context, _ *Usage) error {
		defer close(release)
		<-started
		answered := make(chan struct{})
		go func() {
			_, _ = ctx.Done(), ctx.Err()
			close(answered)
		}()
		select {
		case <-answered:
		case <-time.After(10 * time.Second):
			t.Error("Done and Err wait on the check in progress")
		}
		return nil
	}, check, time.Millisecond)
}
