package scenario

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"gaaapi/internal/gaahttp"
	"gaaapi/internal/workload"
)

// Epoch is the fixed instant every simulated campaign clock starts
// at. Pinning it (rather than time.Now) is what makes sliding-window
// counters, block expiries and time conditions reproducible run to
// run.
var Epoch = time.Date(2003, time.May, 1, 9, 0, 0, 0, time.UTC)

// SimClock is a manually advanced clock shared by every component of
// an in-process campaign stack.
type SimClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewSimClock starts a clock at Epoch.
func NewSimClock() *SimClock { return &SimClock{now: Epoch} }

// Now returns the current simulated instant.
func (c *SimClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d (negative advances are
// ignored — simulated time never runs backwards).
func (c *SimClock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Exchange is one request/response pair as the driver saw it: the
// synthetic request's identifying fields plus the server's full
// answer. It is the record/replay unit.
type Exchange struct {
	Method string `json:"method"`
	Target string `json:"target"`
	IP     string `json:"ip"`
	User   string `json:"user,omitempty"`
	Class  string `json:"class"`
	Status int    `json:"status"`
	Body   string `json:"body"`
}

// Observation is the adaptive-state snapshot a checkpoint asserts
// against: threat level, firewall blocks, blacklist groups,
// notification count and the cumulative authorization-decision
// counters.
type Observation struct {
	Threat      string              `json:"threat"`
	Transitions uint64              `json:"transitions"`
	Blocked     []string            `json:"blocked"`
	Blacklist   map[string][]string `json:"blacklist"`
	Mailbox     int                 `json:"mailbox"`
	// Decisions maps "yes"/"no"/"maybe" to the cumulative
	// authorization-phase (check) decision count.
	Decisions map[string]uint64 `json:"decisions"`
}

// Target serves one synthetic request and reports the outcome.
type Target interface {
	Do(r workload.Request) (Exchange, error)
}

// Observer exposes adaptive state for checkpoints. Targets that
// cannot observe state (a live URL without a status endpoint, or a
// trace recorded from one) simply don't implement it; state checks
// are then reported as skipped.
type Observer interface {
	Observe() Observation
}

// Advancer lets the driver move campaign time. The in-process target
// advances its simulated clock; a live target sleeps (capped); a
// replay target ignores it.
type Advancer interface {
	Advance(d time.Duration)
}

// Converger reports whether the target's replication mesh has fully
// caught up — the hook for Checkpoint.Converged, read once and never
// waited on: a fleet target ships its replication between requests,
// and a fleet of one is trivially converged. Targets without a mesh to
// read (a live URL, a trace) don't implement it; checkpoints then
// report the check as skipped.
type Converger interface {
	Converged() bool
}

// decisionCounts reads the exact check-phase decision counters out of
// the stack's metrics registry.
func decisionCounts(st *gaahttp.Stack) map[string]uint64 {
	out := map[string]uint64{"yes": 0, "no": 0, "maybe": 0}
	if st.Metrics == nil {
		return out
	}
	for key, v := range st.Metrics.Values() {
		if !strings.HasPrefix(key, "gaa_decisions_total{") ||
			!strings.Contains(key, `phase="check"`) {
			continue
		}
		for dec := range out {
			if strings.Contains(key, `decision="`+dec+`"`) {
				out[dec] = uint64(v)
			}
		}
	}
	return out
}

// LiveTarget replays a campaign against a running server over real
// HTTP. Time advances become bounded real sleeps, and adaptive state
// is unobservable, so live runs check traffic outcomes only; use the
// in-process target (or a recorded trace) for full-fidelity
// checkpoints.
type LiveTarget struct {
	// BaseURL is the server under test, e.g. "http://localhost:8080".
	BaseURL string
	// Client defaults to a 5s-timeout client that treats redirects as
	// outcomes (gaa-attack shares one such client, with its -timeout,
	// across its mix-mode workers).
	Client *http.Client
	// MaxSleep caps how much real time one Advance may burn (default
	// 100ms) — a low-and-slow campaign advancing simulated hours must
	// not stall a live run for hours.
	MaxSleep time.Duration

	requests int
}

// Do issues the request over the wire.
func (t *LiveTarget) Do(r workload.Request) (Exchange, error) {
	client := t.Client
	if client == nil {
		client = &http.Client{
			Timeout: 5 * time.Second,
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		}
		t.Client = client
	}
	req, err := http.NewRequest(r.Method, t.BaseURL+r.Target, nil)
	if err != nil {
		return Exchange{}, err
	}
	if r.User != "" {
		req.SetBasicAuth(r.User, r.Pass)
	}
	resp, err := client.Do(req)
	if err != nil {
		return Exchange{}, err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	t.requests++
	return Exchange{
		Method: r.Method,
		Target: r.Target,
		IP:     r.ClientIP,
		User:   r.User,
		Class:  classKey(r.Attack),
		Status: resp.StatusCode,
		Body:   string(body),
	}, nil
}

// Advance sleeps min(d, MaxSleep).
func (t *LiveTarget) Advance(d time.Duration) {
	max := t.MaxSleep
	if max <= 0 {
		max = 100 * time.Millisecond
	}
	if d > max {
		d = max
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// Requests reports how many live HTTP requests were issued.
func (t *LiveTarget) Requests() int { return t.requests }
