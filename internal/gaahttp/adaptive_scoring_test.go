package gaahttp

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gaaapi/internal/ids"
	"gaaapi/internal/ids/adaptive"
)

// simClock is a settable deterministic clock for stack tests.
type simClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *simClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *simClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

const adaptiveScoringPolicy = `
neg_access_right apache GET /admin/*
pos_access_right apache *
`

func adaptiveStack(t *testing.T) (*Stack, *simClock) {
	t.Helper()
	clock := &simClock{now: time.Date(2003, 5, 1, 9, 0, 0, 0, time.UTC)}
	acfg := adaptive.Defaults()
	acfg.HalfLife = 10 * time.Second
	acfg.MinSamples = 5
	// Per-source enforcement should lead global escalation for a
	// single scanning address; see the engine unit tests for the
	// default-threshold dynamics.
	acfg.BlockScore = 1.1
	st, err := NewStack(StackConfig{
		LocalPolicies: map[string]string{"*": adaptiveScoringPolicy},
		DocRoot: map[string]string{
			"/index.html":  "home",
			"/docs/a.html": "a",
			"/docs/b.html": "b",
		},
		Clock:    clock.Now,
		Metrics:  true,
		Adaptive: &acfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st, clock
}

func adaptiveGet(st *Stack, target, ip string) int {
	req := httptest.NewRequest("GET", target, nil)
	req.RemoteAddr = ip + ":1"
	w := httptest.NewRecorder()
	st.Server.ServeHTTP(w, req)
	return w.Code
}

// The full wired path: HTTP traffic -> guard -> scorer -> netblock,
// with the attacker blocked per-source while the global threat level
// is still Low.
func TestStackAdaptiveBlocksScanningSource(t *testing.T) {
	st, clock := adaptiveStack(t)

	pages := []string{"/index.html", "/docs/a.html", "/docs/b.html"}
	for i := 0; i < 60; i++ {
		clock.Advance(2 * time.Second)
		if code := adaptiveGet(st, pages[i%len(pages)], "10.0.0.1"); code != http.StatusOK {
			t.Fatalf("baseline request %d = %d", i, code)
		}
	}

	// A scanner probing the denied admin tree from one address.
	blocked := false
	for i := 0; i < 40 && !blocked; i++ {
		clock.Advance(50 * time.Millisecond)
		adaptiveGet(st, fmt.Sprintf("/admin/probe%d?cmd=%%3Bcat%%20%%2Fetc", i), "203.0.113.99")
		blocked = st.Blocks.Blocked("203.0.113.99")
	}
	if !blocked {
		t.Fatalf("scanner never blocked; score=%v signal=%v",
			st.Scorer.SourceScore("203.0.113.99"), st.Scorer.Signal())
	}
	if got := st.Threat.Level(); got != ids.Low {
		t.Fatalf("global threat %s at per-source block time, want low", got)
	}
	// The firewall layer now refuses the scanner outright.
	if code := adaptiveGet(st, "/index.html", "203.0.113.99"); code != http.StatusForbidden {
		t.Fatalf("blocked scanner got %d, want 403", code)
	}
	// Innocent traffic is untouched.
	if code := adaptiveGet(st, "/index.html", "10.0.0.1"); code != http.StatusOK {
		t.Fatalf("innocent source got %d after scanner block", code)
	}
}

// The adaptive gauges and counters ride the metrics endpoint.
func TestStackAdaptiveMetricsExposed(t *testing.T) {
	st, clock := adaptiveStack(t)
	for i := 0; i < 10; i++ {
		clock.Advance(time.Second)
		adaptiveGet(st, "/index.html", "10.0.0.1")
	}
	w := httptest.NewRecorder()
	MetricsHandler(st.Metrics).ServeHTTP(w, httptest.NewRequest("GET", "/gaa/metrics", nil))
	body := w.Body.String()
	for _, name := range []string{
		MetricAdaptiveSignal, MetricAdaptiveSources,
		MetricAdaptiveResources, MetricAdaptiveSamples, MetricAdaptiveSourceBlocks,
	} {
		if !strings.Contains(body, name) {
			t.Errorf("metrics exposition missing %s", name)
		}
	}
	if !strings.Contains(body, MetricAdaptiveSamples+" 10") {
		t.Errorf("sample counter not tracking requests:\n%s", body)
	}
}
