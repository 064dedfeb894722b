package ids

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBusConcurrentPublishSubscribe stresses the bus with publishers and
// listener registrations racing (validated with -race in CI). A listener
// registered before any publisher starts sees every report; one
// registered mid-stream sees a suffix of them, never a torn list.
func TestBusConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus()
	var first atomic.Uint64
	b.OnReport(func(Report) { first.Add(1) })
	var wg sync.WaitGroup

	// Late listeners.
	var late atomic.Uint64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				b.OnReport(func(Report) { late.Add(1) })
			}
		}()
	}
	// Publishers.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Publish(Report{Kind: LegitimatePattern})
			}
		}()
	}
	wg.Wait()
	if got := b.Published(); got != 800 {
		t.Errorf("published = %d, want 800", got)
	}
	if got := first.Load(); got != 800 {
		t.Errorf("first listener saw %d, want 800", got)
	}
	before := late.Load()
	if before > 160*800 {
		t.Errorf("late listeners saw %d, more than 160 listeners × 800 reports", before)
	}
	// Every racing registration landed: one more report reaches all 161.
	b.Publish(Report{})
	if got := first.Load(); got != 801 {
		t.Errorf("first listener saw %d after the last publish, want 801", got)
	}
	if got := late.Load() - before; got != 160 {
		t.Errorf("last report reached %d late listeners, want 160", got)
	}
}

// TestCorrelatorConcurrentObserve: concurrent reports never corrupt the
// window state or panic.
func TestCorrelatorConcurrentObserve(t *testing.T) {
	mgr := NewManager(Low)
	c := NewCorrelator(mgr, CorrelatorConfig{Window: time.Minute, MediumAfter: 5, HighAfter: 100})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ip := fmt.Sprintf("192.0.2.%d", i)
			for j := 0; j < 50; j++ {
				c.Observe(Report{Kind: DetectedAttack, Severity: SevMedium, ClientIP: ip})
			}
		}()
	}
	wg.Wait()
	if mgr.Level() != Medium {
		t.Errorf("level = %v, want medium after 800 medium events from 16 sources", mgr.Level())
	}
}

// TestDetectorConcurrentTrainScore: training and scoring race safely.
func TestDetectorConcurrentTrainScore(t *testing.T) {
	d := NewDetector(DefaultAnomalyConfig())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				d.Train("u", "/p", j%10)
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				d.Score("u", "/p", j%10)
			}
		}()
	}
	wg.Wait()
	if n := d.Trained("u"); n != 1600 {
		t.Errorf("trained = %d, want 1600", n)
	}
}
