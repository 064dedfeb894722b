package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gaaapi/internal/ids"
)

// clusterize rewrites a single-stack campaign for a replicated fleet:
// traffic-class expectations are dropped (round-robin shifts exactly
// which request trips a threshold, so per-request statuses differ),
// transition caps are dropped (each node climbs its own ladder), and
// every phase instead requires the replication mesh to have converged
// before its state checks run. What remains — threat level, firewall
// blocks, blacklist membership, notification floors — must hold
// against the MERGED fleet state, which is the whole point:
// checkpoints written for one server read naturally against a
// converged cluster.
func clusterize(c Campaign) Campaign {
	phases := make([]Phase, len(c.Phases))
	copy(phases, c.Phases)
	for i := range phases {
		cp := phases[i].Checkpoint
		cp.Classes = nil
		cp.TransitionsAtMost = 0
		cp.Converged = true
		phases[i].Checkpoint = cp
	}
	c.Phases = phases
	return c
}

var updateCampaigns = flag.Bool("update-campaigns", false, "rewrite the clusterized campaign golden reports")

// clusterGoldenDir holds one golden report per catalog campaign,
// clusterized on two nodes, beside the single-stack ones.
const clusterGoldenDir = "../../testdata/scenario/cluster"

// TestCampaignCatalogOnCluster runs the whole campaign catalog against
// a two-node replicated fleet behind a round-robin load balancer. The
// target steps replication between requests on the campaign clock, so
// every phase's convergence checkpoint is a direct read, and two runs
// on fresh targets must render the golden report byte for byte. With
// -update-campaigns it rewrites the goldens instead.
func TestCampaignCatalogOnCluster(t *testing.T) {
	for _, c := range All() {
		c := clusterize(c)
		t.Run(c.Name, func(t *testing.T) {
			golden := filepath.Join(clusterGoldenDir, c.Name+".golden.json")
			var want []byte
			if !*updateCampaigns {
				var err error
				if want, err = os.ReadFile(golden); err != nil {
					t.Fatalf("read golden (run with -update-campaigns to regenerate): %v", err)
				}
			}
			for run := 0; run < 2; run++ {
				ct, err := NewClusterTarget(c.Stack, 2)
				if err != nil {
					t.Fatalf("NewClusterTarget: %v", err)
				}
				rep, err := Run(c, ct, Options{})
				ct.Close()
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if !rep.Passed {
					for _, f := range rep.Failures {
						t.Error(f)
					}
				}
				// Convergence must have been asserted for real, not skipped.
				for _, ph := range rep.Phases {
					found := false
					for _, ck := range ph.Checks {
						if ck.Name == "converged" {
							found = true
							if ck.Skipped {
								t.Errorf("phase %s: convergence check skipped on a cluster target", ph.Name)
							}
						}
					}
					if !found {
						t.Errorf("phase %s: no convergence check", ph.Name)
					}
				}
				var got bytes.Buffer
				if err := rep.WriteJSON(&got); err != nil {
					t.Fatal(err)
				}
				if *updateCampaigns {
					if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("run %d: report differs from %s:\n%s", run+1, golden, got.Bytes())
				}
			}
		})
	}
}

// TestAdaptiveRampClusterEnforcement is the cross-node acceptance
// drill: adaptive-ramp runs against a two-node fleet, so each node
// sees only half the attacker's probes. The replicated score events
// must merge into a block that BOTH nodes enforce within the
// convergence checkpoint — while neither node's threat level moves.
func TestAdaptiveRampClusterEnforcement(t *testing.T) {
	c := clusterize(adaptiveRamp())
	ct, err := NewClusterTarget(c.Stack, 2)
	if err != nil {
		t.Fatalf("NewClusterTarget: %v", err)
	}
	defer ct.Close()
	rep, err := Run(c, ct, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Passed {
		for _, f := range rep.Failures {
			t.Error(f)
		}
	}
	const attacker = "203.0.113.99"
	for i, node := range ct.Nodes {
		if !node.Blocks.Blocked(attacker) {
			t.Errorf("node %d does not enforce the attacker block after convergence", i)
		}
		if lvl := node.Threat.Level(); lvl != ids.Low {
			t.Errorf("node %d threat = %s, want low (per-source response only)", i, lvl)
		}
	}
	// The block came from merged evidence, not any policy: both nodes
	// must agree on the attacker's replicated score.
	for i, node := range ct.Nodes {
		if node.Scorer == nil {
			t.Fatalf("node %d has no scorer", i)
		}
		if s := node.Scorer.SourceScore(attacker); s <= 0 {
			t.Errorf("node %d never learned the attacker's score", i)
		}
	}
}

// TestLockdownEndsOnThreeNodes runs lockdown-ends on a three-node
// fleet and pins its report. Round-robin puts every probe of the
// lockdown phase but one on node 0 and none on node 1: node 1's level
// goes high only by merging node 0's raise, and it steps back down to
// low with the rest of the fleet instead of staying pinned.
func TestLockdownEndsOnThreeNodes(t *testing.T) {
	c := clusterize(lockdownEnds())
	ct, err := NewClusterTarget(c.Stack, 3)
	if err != nil {
		t.Fatalf("NewClusterTarget: %v", err)
	}
	defer ct.Close()
	rep, err := Run(c, ct, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Passed {
		for _, f := range rep.Failures {
			t.Error(f)
		}
	}
	// Notifications do not replicate: node 1 was sent no probe.
	if got := ct.Nodes[1].Mailbox.Count(); got != 0 {
		t.Errorf("node 1 sent %d notifications, want none: it should have seen no probe", got)
	}
	for i, node := range ct.Nodes {
		var peak ids.Level
		for _, tr := range node.Threat.History() {
			peak = max(peak, tr.To)
		}
		if peak != ids.High || node.Threat.Level() != ids.Low {
			t.Errorf("node %d peaked at %s and ended at %s, want high then low", i, peak, node.Threat.Level())
		}
	}

	var got bytes.Buffer
	if err := rep.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join(clusterGoldenDir, "lockdown-ends.3-nodes.golden.json")
	if *updateCampaigns {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-campaigns to regenerate): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("report differs from %s:\n%s", golden, got.Bytes())
	}
}
