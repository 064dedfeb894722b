package gaaapi

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gaaapi/internal/scenario"
	"gaaapi/internal/scenario/replay"
)

var updateCampaigns = flag.Bool("update-campaigns", false, "rewrite the recorded campaign traces and golden reports")

const campaignRecordDir = "testdata/scenario/records"

// campaignTrace loads the committed trace for a campaign.
func campaignTrace(t *testing.T, name string) *replay.Replayer {
	t.Helper()
	rp, err := replay.Load(filepath.Join(campaignRecordDir, name+".trace"))
	if err != nil {
		t.Fatalf("load trace (run with -update-campaigns to regenerate): %v", err)
	}
	return rp
}

// TestCampaignReplaySuite records every campaign live through the
// in-process target (scenario.ClusterTarget, a fleet of one) and holds
// the trace to the committed one byte for byte, then replays the
// committed trace through the full driver: all checkpoints must hold,
// every trace must be consumed exactly, and the decision-accounting
// invariant (check decisions == requests - firewalled) must be asserted
// in every phase. The replayer is the target, so the replay issues zero
// live HTTP requests by construction. With -update-campaigns the live
// recording overwrites the committed trace instead.
func TestCampaignReplaySuite(t *testing.T) {
	for _, c := range scenario.All() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			committed := filepath.Join(campaignRecordDir, c.Name+".trace")
			recorded := committed
			if !*updateCampaigns {
				recorded = filepath.Join(t.TempDir(), c.Name+".trace")
			}
			st, err := scenario.NewClusterTarget(c.Stack, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			rec := replay.NewRecorder(st, c.Name, scenario.DefaultSeed)
			if _, err := scenario.Run(c, rec, scenario.Options{}); err != nil {
				t.Fatal(err)
			}
			if err := rec.Save(recorded); err != nil {
				t.Fatal(err)
			}
			if *updateCampaigns {
				return
			}
			got, err := os.ReadFile(recorded)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(committed)
			if err != nil {
				t.Fatalf("read trace (run with -update-campaigns to regenerate): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("a live recording differs from %s (run with -update-campaigns to regenerate)", committed)
			}

			rp := campaignTrace(t, c.Name)
			rep, err := scenario.Run(c, rp, scenario.Options{Seed: rp.Header().Seed})
			if err != nil {
				t.Fatal(err)
			}
			if err := rp.Done(); err != nil {
				t.Error(err)
			}
			if !rep.Passed {
				for _, f := range rep.Failures {
					t.Error(f)
				}
			}
			for _, ph := range rep.Phases {
				found := false
				for _, ck := range ph.Checks {
					if ck.Name == "decision-accounting" {
						found = true
						if ck.Skipped {
							t.Errorf("phase %s: decision accounting skipped in replay", ph.Name)
						}
						if !ck.Passed {
							t.Errorf("phase %s: decision accounting: want %s, got %s", ph.Name, ck.Want, ck.Got)
						}
					}
				}
				if !found {
					t.Errorf("phase %s: no decision-accounting check", ph.Name)
				}
			}
		})
	}
}

// TestCampaignGoldenReports pins the full canonical JSON report of two
// campaigns, replayed from their committed traces — any drift in the
// driver, the checkpoint evaluation, the decision accounting or the
// report shape shows up as a byte diff.
func TestCampaignGoldenReports(t *testing.T) {
	for _, name := range []string{"credential-stuffing", "flash-crowd", "adaptive-ramp", "adaptive-flap"} {
		name := name
		t.Run(name, func(t *testing.T) {
			c, err := scenario.Find(name)
			if err != nil {
				t.Fatal(err)
			}
			rp := campaignTrace(t, name)
			rep, err := scenario.Run(c, rp, scenario.Options{Seed: rp.Header().Seed})
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := rep.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata/scenario", name+".golden.json")
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
				t.Errorf("report drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got.String(), want)
			}
		})
	}
}
