package scenario

import (
	"fmt"
	"strconv"
	"time"
)

// DefaultSeed is the campaign seed when none is given — the paper's
// year, like the rest of the experiment harness.
const DefaultSeed = 2003

// DefaultGap is the simulated pause between consecutive requests when
// neither the phase nor the request specifies one. It is small enough
// that bursts trip rate windows and large enough that sliding-window
// counters see time move.
const DefaultGap = 10 * time.Millisecond

// Options configures one campaign run.
type Options struct {
	// Seed drives every phase's traffic generator. Zero means
	// DefaultSeed.
	Seed int64
	// Throttle inserts a real pause after every request. Cluster
	// campaigns set a couple of milliseconds so the replication
	// pushers (which run on real time) can drain between requests.
	Throttle time.Duration
	// ConvergeSLO bounds how long a Converged checkpoint may wait for
	// the replication mesh to catch up (default 5s). Exceeding it
	// fails the check — the replication SLO as a first-class
	// assertion.
	ConvergeSLO time.Duration
}

// CheckResult is one checkpoint assertion's outcome.
type CheckResult struct {
	Name    string `json:"name"`
	Want    string `json:"want"`
	Got     string `json:"got"`
	Passed  bool   `json:"passed"`
	Skipped bool   `json:"skipped,omitempty"`
}

// PhaseReport is one phase's outcome: traffic accounting, the state
// observed at the checkpoint, and every assertion's result.
type PhaseReport struct {
	Name     string `json:"name"`
	Comment  string `json:"comment,omitempty"`
	Requests int    `json:"requests"`
	// Statuses counts exchanges by HTTP status ("200" -> 41).
	Statuses map[string]int `json:"statuses"`
	// Classes counts exchanges by traffic class then status.
	Classes map[string]map[string]int `json:"classes"`
	// Firewalled counts requests dropped by the netblock layer before
	// the authorization phase (they record no GAA decision).
	Firewalled int `json:"firewalled"`
	// Decisions is this phase's authorization-decision delta
	// (yes/no/maybe), when the target is observable.
	Decisions map[string]uint64 `json:"decisions,omitempty"`
	// Observed is the adaptive state at the checkpoint.
	Observed *Observation  `json:"observed,omitempty"`
	Checks   []CheckResult `json:"checks"`
}

// Report is a campaign run's canonical, seed-deterministic outcome.
// Two runs with the same seed against the same stack produce
// byte-identical WriteJSON output.
type Report struct {
	Campaign string        `json:"campaign"`
	Title    string        `json:"title"`
	Seed     int64         `json:"seed"`
	Phases   []PhaseReport `json:"phases"`
	Requests int           `json:"requests"`
	Checks   int           `json:"checks"`
	Failures []string      `json:"failures"`
	Passed   bool          `json:"passed"`
}

// firewallBody is the netblock layer's fixed response body — how the
// driver tells a connection-level drop from a policy denial.
const firewallBody = "address blocked\n"

// PhaseSeed derives the deterministic per-phase generator seed.
func PhaseSeed(seed int64, phase int) int64 {
	return seed + int64(phase+1)*1_000_003
}

// Run drives the campaign against tgt: for each phase it advances
// campaign time, issues the seeded traffic, observes the adaptive
// state and asserts the checkpoint. It returns an error only when the
// target itself fails (transport error, replay divergence); checkpoint
// misses are reported in Report.Failures with Passed=false.
func Run(c Campaign, tgt Target, opts Options) (*Report, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	rep := &Report{
		Campaign: c.Name,
		Title:    c.Title,
		Seed:     seed,
		Failures: []string{},
		Passed:   true,
	}
	obs, observable := tgt.(Observer)
	adv, advances := tgt.(Advancer)

	var prev Observation
	if observable {
		prev = obs.Observe()
	}

	for pi, ph := range c.Phases {
		if ph.Advance > 0 && advances {
			adv.Advance(ph.Advance)
		}
		gap := ph.Gap
		if gap <= 0 {
			gap = DefaultGap
		}
		reqs := ph.Traffic(PhaseSeed(seed, pi))

		pr := PhaseReport{
			Name:     ph.Name,
			Comment:  ph.Comment,
			Requests: len(reqs),
			Statuses: map[string]int{},
			Classes:  map[string]map[string]int{},
			Checks:   []CheckResult{},
		}
		for i, r := range reqs {
			d := r.Delay
			if d == 0 && i > 0 {
				d = gap
			}
			if d > 0 && advances {
				adv.Advance(d)
			}
			x, err := tgt.Do(r)
			if err != nil {
				return rep, fmt.Errorf("phase %q request %d (%s %s from %s): %w",
					ph.Name, i, r.Method, r.Target, r.ClientIP, err)
			}
			if opts.Throttle > 0 {
				time.Sleep(opts.Throttle)
			}
			status := strconv.Itoa(x.Status)
			pr.Statuses[status]++
			byClass := pr.Classes[x.Class]
			if byClass == nil {
				byClass = map[string]int{}
				pr.Classes[x.Class] = byClass
			}
			byClass[status]++
			if x.Body == firewallBody {
				pr.Firewalled++
			}
		}

		convState := ""
		if ph.Checkpoint.Converged {
			convState = awaitConvergence(tgt, opts.ConvergeSLO)
		}

		var cur Observation
		if observable {
			cur = obs.Observe()
			curCopy := cur
			pr.Observed = &curCopy
			pr.Decisions = map[string]uint64{}
			for dec, n := range cur.Decisions {
				pr.Decisions[dec] = n - prev.Decisions[dec]
			}
		}
		pr.Checks = evalCheckpoint(ph.Checkpoint, pr, cur, observable, convState)
		for _, cr := range pr.Checks {
			rep.Checks++
			if !cr.Passed && !cr.Skipped {
				rep.Passed = false
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("%s/%s: %s: want %s, got %s", c.Name, ph.Name, cr.Name, cr.Want, cr.Got))
			}
		}
		rep.Requests += pr.Requests
		rep.Phases = append(rep.Phases, pr)
		prev = cur
	}
	return rep, nil
}

// awaitConvergence polls the target's replication mesh until it has
// fully caught up or the SLO expires. The returned state is a
// deterministic string for the checkpoint: "converged",
// "not converged", or "unobservable" for targets without a mesh.
func awaitConvergence(tgt Target, slo time.Duration) string {
	cv, ok := tgt.(Converger)
	if !ok {
		return "unobservable"
	}
	if slo <= 0 {
		slo = 5 * time.Second
	}
	deadline := time.Now().Add(slo)
	for {
		if cv.Converged() {
			return "converged"
		}
		if !time.Now().Before(deadline) {
			return "not converged"
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// evalCheckpoint turns the declarative checkpoint into concrete
// results against the phase's traffic and the observed state.
func evalCheckpoint(cp Checkpoint, pr PhaseReport, obs Observation, observable bool, convState string) []CheckResult {
	out := []CheckResult{}
	check := func(name, want, got string, ok bool) {
		out = append(out, CheckResult{Name: name, Want: want, Got: got, Passed: ok})
	}
	skip := func(name, want string) {
		out = append(out, CheckResult{Name: name, Want: want, Got: "unobservable", Passed: true, Skipped: true})
	}
	stateCheck := func(name, want, got string, ok bool) {
		if !observable {
			skip(name, want)
			return
		}
		check(name, want, got, ok)
	}

	// Traffic-class expectations need no observer.
	for _, ce := range cp.Classes {
		class := classKey(ce.Class)
		status := strconv.Itoa(ce.Status)
		byClass := pr.Classes[class]
		got := byClass[status]
		total := 0
		for _, n := range byClass {
			total += n
		}
		name := "class:" + class + ":" + status
		if ce.All {
			check(name, fmt.Sprintf("all %d with status %s", total, status),
				fmt.Sprintf("%d of %d", got, total), got == total)
			continue
		}
		check(name, fmt.Sprintf(">=%d with status %s", ce.Min, status),
			strconv.Itoa(got), got >= ce.Min)
	}

	if cp.Threat != "" {
		stateCheck("threat-level", cp.Threat, obs.Threat, obs.Threat == cp.Threat)
	}
	for _, ip := range cp.Blocked {
		stateCheck("blocked:"+ip, "blocked", blockedStr(obs.Blocked, ip),
			containsStr(obs.Blocked, ip))
	}
	for _, ip := range cp.NotBlocked {
		stateCheck("not-blocked:"+ip, "not blocked", blockedStr(obs.Blocked, ip),
			!containsStr(obs.Blocked, ip))
	}
	for _, m := range cp.Blacklisted {
		stateCheck("blacklisted:"+m, "in BadGuys", inGroupStr(obs.Blacklist, m),
			containsStr(obs.Blacklist["BadGuys"], m))
	}
	for _, m := range cp.NotBlacklisted {
		stateCheck("not-blacklisted:"+m, "not in BadGuys", inGroupStr(obs.Blacklist, m),
			!containsStr(obs.Blacklist["BadGuys"], m))
	}
	if cp.MailboxAtLeast > 0 {
		stateCheck("notifications", fmt.Sprintf(">=%d", cp.MailboxAtLeast),
			strconv.Itoa(obs.Mailbox), obs.Mailbox >= cp.MailboxAtLeast)
	}
	if cp.TransitionsAtMost > 0 {
		stateCheck("transitions", fmt.Sprintf("<=%d", cp.TransitionsAtMost),
			strconv.FormatUint(obs.Transitions, 10),
			obs.Transitions <= uint64(cp.TransitionsAtMost))
	}
	if cp.Converged {
		if convState == "unobservable" {
			skip("converged", "replication converged within SLO")
		} else {
			check("converged", "replication converged within SLO",
				convState, convState == "converged")
		}
	}

	// Decision accounting: every request that passed the firewall must
	// have produced exactly one authorization decision.
	if observable {
		var total uint64
		for _, n := range pr.Decisions {
			total += n
		}
		want := uint64(pr.Requests - pr.Firewalled)
		check("decision-accounting",
			fmt.Sprintf("%d decisions (%d requests - %d firewalled)", want, pr.Requests, pr.Firewalled),
			strconv.FormatUint(total, 10), total == want)
	} else {
		skip("decision-accounting", "decisions == requests - firewalled")
	}
	return out
}

func containsStr(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func blockedStr(blocked []string, ip string) string {
	if containsStr(blocked, ip) {
		return "blocked"
	}
	return "not blocked"
}

func inGroupStr(groups map[string][]string, m string) string {
	if containsStr(groups["BadGuys"], m) {
		return "in BadGuys"
	}
	return "not in BadGuys"
}
