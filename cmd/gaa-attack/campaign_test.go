package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gaaapi/internal/gaahttp"
	"gaaapi/internal/scenario"
)

// TestCampaignList: the catalog prints every campaign with its phases.
func TestCampaignList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"credential-stuffing", "flash-crowd", "low-and-slow",
		"recovery-after-block", "scraping-burst", "threat-ladder",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("missing campaign %s:\n%s", name, out.String())
		}
	}
}

// TestCampaignInProcess: a passing campaign exits zero, prints the
// effective seed and the PASS verdict.
func TestCampaignInProcess(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-campaign", "recovery-after-block", "-seed", "41"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "seed: 41") {
		t.Errorf("effective seed not printed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "PASS:") {
		t.Errorf("missing verdict:\n%s", out.String())
	}
}

// TestCampaignJSON: -json emits the machine envelope with the seed and
// full reports.
func TestCampaignJSON(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-campaign", "flash-crowd", "-json", "-seed", "9"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	var env struct {
		Seed    int64 `json:"seed"`
		Passed  bool  `json:"passed"`
		Reports []struct {
			Campaign string `json:"campaign"`
			Seed     int64  `json:"seed"`
		} `json:"reports"`
	}
	if err := json.Unmarshal([]byte(out.String()), &env); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if env.Seed != 9 || !env.Passed || len(env.Reports) != 1 || env.Reports[0].Campaign != "flash-crowd" {
		t.Errorf("envelope = %+v", env)
	}
}

// TestCampaignRecordReplay: record writes one trace per campaign, and
// replay runs from them (the -seed flag is overridden by the trace's
// recorded seed).
func TestCampaignRecordReplay(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-campaign", "scraping-burst", "-seed", "5", "-record", dir}, &out); err != nil {
		t.Fatalf("record: %v\n%s", err, out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "scraping-burst.trace")); err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	out.Reset()
	// Different -seed on replay: the trace seed (5) must win.
	if err := run([]string{"-campaign", "scraping-burst", "-seed", "99", "-replay", dir}, &out); err != nil {
		t.Fatalf("replay: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "seed=5") {
		t.Errorf("trace seed not authoritative:\n%s", out.String())
	}
}

// TestCampaignCheckpointFailureExitsNonZero: a failing checkpoint is a
// run error (main turns it into a non-zero exit), and the failure
// names the check.
func TestCampaignCheckpointFailureExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-campaign", "flash-crowd", "-seed", "5", "-record", dir}, &out); err != nil {
		t.Fatalf("record: %v", err)
	}
	// Replaying a different campaign's narrative against this trace
	// diverges — a hard error, not a checkpoint miss.
	out.Reset()
	err := run([]string{"-campaign", "credential-stuffing", "-replay", dir}, &out)
	if err == nil {
		t.Fatal("want error replaying the wrong campaign's trace")
	}
}

// TestCampaignBadFlagCombos: conflicting modes are rejected.
func TestCampaignBadFlagCombos(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-campaign", "flash-crowd", "-replay", "x", "-live"}, &out); err == nil {
		t.Error("want error for -replay with -live")
	}
	if err := run([]string{"-campaign", "nope"}, &out); err == nil || !strings.Contains(err.Error(), "-list") {
		t.Errorf("unknown campaign err = %v", err)
	}
}

// TestCampaignLive: campaigns degrade gracefully against a live URL —
// traffic assertions run, unobservable state checks are skipped, and
// the run still passes. Over a real socket every request arrives from
// 127.0.0.1, so only campaigns whose adaptive state is global (not
// source-keyed) can hold their narrative live; threat-ladder is one.
func TestCampaignLive(t *testing.T) {
	c, err := scenario.Find("threat-ladder")
	if err != nil {
		t.Fatal(err)
	}
	st, err := gaahttp.NewStack(c.Stack)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(st.Server)
	defer func() {
		srv.Close()
		st.Close()
	}()
	var out strings.Builder
	if err := run([]string{"-campaign", "threat-ladder", "-live", "-target", srv.URL}, &out); err != nil {
		t.Fatalf("live campaign: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "skipped") {
		t.Errorf("state checks should be skipped against a live target:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "PASS:") {
		t.Errorf("live traffic narrative failed:\n%s", out.String())
	}
}
