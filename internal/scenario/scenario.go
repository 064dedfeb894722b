// Package scenario is the attack-campaign factory: a declarative DSL
// for named, phased adversarial-traffic campaigns with turn-by-turn
// checkpoints, plus a driver that runs them against an in-process
// gaahttp fleet (ClusterTarget, one stack or several) or a live
// gaa-httpd URL. Campaigns are fully seeded — the same seed produces
// the same request stream, the same decisions and a byte-identical
// JSON report. The sibling package scenario/replay captures a
// campaign's HTTP exchanges so CI replays them deterministically with
// zero live traffic.
package scenario

import (
	"time"

	"gaaapi/internal/gaahttp"
	"gaaapi/internal/workload"
)

// TrafficFunc generates one phase's request stream from the phase
// seed. It must be deterministic in seed.
type TrafficFunc func(seed int64) []workload.Request

// Phase is one stage of a campaign: optional simulated-time advance,
// a seeded traffic mix, and a checkpoint asserted once the traffic
// has drained.
type Phase struct {
	// Name identifies the phase in reports and traces.
	Name string
	// Comment is a one-line description for reports and -list output.
	Comment string
	// Advance moves the campaign clock forward before the phase runs
	// (block expiries, sliding windows). Zero advances nothing.
	Advance time.Duration
	// Gap is the default simulated pause between consecutive requests;
	// a request's own Delay overrides it. Zero uses the driver default.
	Gap time.Duration
	// Traffic generates the phase's request stream.
	Traffic TrafficFunc
	// Checkpoint is asserted after the phase's traffic has been served.
	Checkpoint Checkpoint
}

// Checkpoint is the declarative turn-by-turn assertion set: expected
// decision counts per traffic class, threat-level trajectory, netblock
// and blacklist state, notification floor, and decision accounting.
// Zero-valued fields assert nothing.
type Checkpoint struct {
	// Threat is the exact threat level expected after the phase
	// ("low", "medium", "high"; "" skips the check).
	Threat string `json:"threat,omitempty"`
	// Blocked lists sources that must be firewall-blocked.
	Blocked []string `json:"blocked,omitempty"`
	// NotBlocked lists sources that must NOT be firewall-blocked — the
	// signature assertion of low-and-slow campaigns.
	NotBlocked []string `json:"not_blocked,omitempty"`
	// Blacklisted lists members required in the BadGuys group.
	Blacklisted []string `json:"blacklisted,omitempty"`
	// NotBlacklisted lists members that must NOT be in BadGuys.
	NotBlacklisted []string `json:"not_blacklisted,omitempty"`
	// MailboxAtLeast is the minimum cumulative notification count.
	MailboxAtLeast int `json:"mailbox_at_least,omitempty"`
	// TransitionsAtMost caps the cumulative threat-level transition
	// count — the anti-flapping assertion. Zero asserts nothing.
	TransitionsAtMost int `json:"transitions_at_most,omitempty"`
	// Converged requires the target's replication mesh to be fully
	// acknowledged when the phase's traffic is done; the driver reads
	// it once, without waiting. Skipped on targets that cannot report
	// it.
	Converged bool `json:"converged,omitempty"`
	// Classes are per-traffic-class status expectations over this
	// phase's exchanges.
	Classes []ClassExpect `json:"classes,omitempty"`
}

// ClassExpect asserts how many of a phase's exchanges of one traffic
// class ended with one HTTP status. Class "" means unlabeled
// (legitimate) traffic.
type ClassExpect struct {
	// Class is the workload attack label ("" for legit traffic).
	Class string `json:"class"`
	// Status is the expected HTTP status code.
	Status int `json:"status"`
	// Min is the minimum number of (Class, Status) exchanges.
	Min int `json:"min,omitempty"`
	// All requires EVERY exchange of Class to carry Status — the
	// zero-false-positive form.
	All bool `json:"all,omitempty"`
}

// Campaign is a named attack scenario: the deployment it runs against
// and its ordered phases.
type Campaign struct {
	// Name is the kebab-case campaign id (-campaign flag).
	Name string
	// Title is the display name.
	Title string
	// Description says what the campaign exercises and what the
	// expected trajectory is.
	Description string
	// Stack is the deployment the campaign runs against in-process:
	// the policy pair plus the site content and accounts its traffic
	// assumes. The in-process target sets Clock and Metrics.
	Stack gaahttp.StackConfig
	// Phases run in order against one stack instance.
	Phases []Phase
}

// classKey normalizes a workload attack label for report maps.
func classKey(attack string) string {
	if attack == "" {
		return "legit"
	}
	return attack
}
