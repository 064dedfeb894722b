package scenario

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/workload"
)

// runCampaign drives c against a fresh in-process stack.
func runCampaign(t *testing.T, c Campaign, opts Options) *Report {
	t.Helper()
	tgt, err := NewClusterTarget(c.Stack, 1)
	if err != nil {
		t.Fatalf("stack for %s: %v", c.Name, err)
	}
	defer tgt.Close()
	rep, err := Run(c, tgt, opts)
	if err != nil {
		t.Fatalf("run %s: %v", c.Name, err)
	}
	return rep
}

// TestAllCampaignsPass: every shipped campaign's full checkpoint
// narrative holds against a real stack at the default seed.
func TestAllCampaignsPass(t *testing.T) {
	for _, c := range All() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			rep := runCampaign(t, c, Options{})
			for _, f := range rep.Failures {
				t.Error(f)
			}
			if rep.Requests == 0 {
				t.Error("campaign issued no traffic")
			}
			// Every checkpoint evaluated against real state — nothing
			// should have been skipped in-process.
			for _, ph := range rep.Phases {
				for _, ck := range ph.Checks {
					if ck.Skipped {
						t.Errorf("phase %s: check %s skipped in-process", ph.Name, ck.Name)
					}
				}
			}
		})
	}
}

// TestCampaignDeterminism: two runs of the same campaign at the same
// seed produce byte-identical canonical JSON reports — the property
// the whole record/replay design rests on.
func TestCampaignDeterminism(t *testing.T) {
	for _, c := range All() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			var bufs [2]bytes.Buffer
			for i := range bufs {
				rep := runCampaign(t, c, Options{Seed: 77})
				if err := rep.WriteJSON(&bufs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
				t.Errorf("same-seed reports differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
					bufs[0].String(), bufs[1].String())
			}
		})
	}
}

// TestSeedChangesTraffic: a different seed reshuffles the generated
// streams (the generators are actually seed-sensitive, not constant).
func TestSeedChangesTraffic(t *testing.T) {
	c, err := Find("credential-stuffing")
	if err != nil {
		t.Fatal(err)
	}
	a := c.Phases[1].Traffic(PhaseSeed(1, 1))
	b := c.Phases[1].Traffic(PhaseSeed(2, 1))
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("empty streams")
	}
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical request streams")
	}
}

// TestCheckpointFailureDetected: a wrong expectation is reported as a
// failure, not silently absorbed — gaa-attack's non-zero exit hangs
// off Report.Passed.
func TestCheckpointFailureDetected(t *testing.T) {
	c, err := Find("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: claim the attackers get served.
	c.Phases[1].Checkpoint = Checkpoint{
		Classes: []ClassExpect{{Class: "phf", Status: 200, All: true}},
	}
	rep := runCampaign(t, c, Options{})
	if rep.Passed {
		t.Fatal("sabotaged checkpoint still passed")
	}
	if len(rep.Failures) == 0 {
		t.Fatal("no failure recorded")
	}
	if !strings.Contains(rep.Failures[0], "class:phf:200") {
		t.Errorf("failure = %q, want class:phf:200 mismatch", rep.Failures[0])
	}
}

// TestDriverUnobservableTarget: state checks are skipped (not failed)
// when the target exposes no Observer — the live-URL degradation path.
type blindTarget struct{ inner *ClusterTarget }

func (b blindTarget) Do(r workload.Request) (Exchange, error) { return b.inner.Do(r) }
func (b blindTarget) Advance(d time.Duration)                 { b.inner.Advance(d) }

func TestDriverUnobservableTarget(t *testing.T) {
	c, err := Find("recovery-after-block")
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewClusterTarget(c.Stack, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rep, err := Run(c, blindTarget{inner: st}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, ph := range rep.Phases {
		for _, ck := range ph.Checks {
			if ck.Skipped {
				skipped++
			}
		}
	}
	if skipped == 0 {
		t.Error("no state checks skipped against an unobservable target")
	}
	// Traffic-class checks still ran and passed.
	if !rep.Passed {
		t.Errorf("traffic checks failed: %v", rep.Failures)
	}
}

// TestFindUnknown: the error names the flag that lists campaigns.
func TestFindUnknown(t *testing.T) {
	if _, err := Find("no-such"); err == nil || !strings.Contains(err.Error(), "-list") {
		t.Errorf("err = %v, want mention of -list", err)
	}
}

// TestPhaseSeedDistinct: phases of one run never share a generator
// seed (identical mixes in consecutive phases would mask ordering
// bugs).
func TestPhaseSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 10; i++ {
		s := PhaseSeed(DefaultSeed, i)
		if seen[s] {
			t.Fatalf("phase seed collision at phase %d", i)
		}
		seen[s] = true
	}
}

// TestSummarizeReportsVerdict: the human summary carries the verdict
// line gaa-attack prints.
func TestSummarizeReportsVerdict(t *testing.T) {
	c, err := Find("scraping-burst")
	if err != nil {
		t.Fatal(err)
	}
	rep := runCampaign(t, c, Options{})
	var buf bytes.Buffer
	rep.Summarize(&buf)
	out := buf.String()
	if !strings.Contains(out, "PASS:") {
		t.Errorf("summary missing verdict:\n%s", out)
	}
	if !strings.Contains(out, "phase scrape") {
		t.Errorf("summary missing phase lines:\n%s", out)
	}
}
