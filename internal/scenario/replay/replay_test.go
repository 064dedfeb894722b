package replay

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"gaaapi/internal/scenario"
)

// record runs c against a fresh in-process stack through a Recorder
// and returns the live report plus the serialized trace.
func record(t *testing.T, c scenario.Campaign, seed int64) (*scenario.Report, []byte) {
	t.Helper()
	st, err := scenario.NewClusterTarget(c.Stack, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := NewRecorder(st, c.Name, seed)
	rep, err := scenario.Run(c, rec, scenario.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return rep, buf.Bytes()
}

// TestRoundTrip: for every shipped campaign, a recorded run replayed
// from its trace yields a byte-identical canonical report, consumes
// the whole trace, and issues zero live requests (the replayer IS the
// target — there is nothing to leak traffic through).
func TestRoundTrip(t *testing.T) {
	for _, c := range scenario.All() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			liveRep, trace := record(t, c, 7)

			rp, err := Read(bytes.NewReader(trace))
			if err != nil {
				t.Fatal(err)
			}
			if rp.Header().Campaign != c.Name || rp.Header().Seed != 7 {
				t.Errorf("header = %+v", rp.Header())
			}
			replayRep, err := scenario.Run(c, rp, scenario.Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := rp.Done(); err != nil {
				t.Errorf("trace not cleanly consumed: %v", err)
			}
			if !replayRep.Passed {
				t.Errorf("replayed run failed: %v", replayRep.Failures)
			}

			liveJSON, err := liveRep.MarshalCanonical()
			if err != nil {
				t.Fatal(err)
			}
			replayJSON, err := replayRep.MarshalCanonical()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(liveJSON, replayJSON) {
				t.Errorf("replayed report differs from live report:\n--- live ---\n%s\n--- replay ---\n%s",
					liveJSON, replayJSON)
			}
		})
	}
}

// TestSaveLoad: the file round trip preserves the trace.
func TestSaveLoad(t *testing.T) {
	c, err := scenario.Find("recovery-after-block")
	if err != nil {
		t.Fatal(err)
	}
	st, err := scenario.NewClusterTarget(c.Stack, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := NewRecorder(st, c.Name, 3)
	if _, err := scenario.Run(c, rec, scenario.Options{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sub", "dir", "trace.trace")
	if err := rec.Save(path); err != nil {
		t.Fatal(err)
	}
	rp, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.Run(c, rp, scenario.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed || rp.Done() != nil {
		t.Errorf("passed=%v done=%v", rep.Passed, rp.Done())
	}
}

// TestDivergenceDetected: replaying with a different seed changes the
// request stream and must be a hard error, not a silently wrong
// report.
func TestDivergenceDetected(t *testing.T) {
	c, err := scenario.Find("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	_, trace := record(t, c, 7)
	rp, err := Read(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	_, err = scenario.Run(c, rp, scenario.Options{Seed: 8})
	if err == nil || !strings.Contains(err.Error(), "replay divergence") {
		t.Fatalf("err = %v, want replay divergence", err)
	}
}

// TestTruncatedTraceDetected: a trace cut short fails loudly when the
// driver runs past its end.
func TestTruncatedTraceDetected(t *testing.T) {
	c, err := scenario.Find("scraping-burst")
	if err != nil {
		t.Fatal(err)
	}
	_, trace := record(t, c, 7)
	lines := bytes.Split(bytes.TrimSuffix(trace, []byte("\n")), []byte("\n"))
	short := bytes.Join(lines[:len(lines)/2], []byte("\n"))
	rp, err := Read(bytes.NewReader(short))
	if err != nil {
		t.Fatal(err)
	}
	_, err = scenario.Run(c, rp, scenario.Options{Seed: 7})
	if err == nil || !strings.Contains(err.Error(), "past end of trace") {
		t.Fatalf("err = %v, want past-end error", err)
	}
}

// TestMalformedTraces: loader rejects garbage with useful errors.
func TestMalformedTraces(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "empty trace"},
		{"bad header", "not-json\n", "trace header"},
		{"bad version", `{"version":99,"campaign":"x","seed":1}` + "\n", "version 99"},
		{"bad entry", `{"version":1,"campaign":"x","seed":1}` + "\nnope\n", "entry 1"},
		{"both kinds", `{"version":1,"campaign":"x","seed":1}` + "\n{}\n", "exactly one"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestObserveSequencing: an Observe where an exchange was recorded is
// a sticky error surfaced by Done.
func TestObserveSequencing(t *testing.T) {
	c, err := scenario.Find("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	_, trace := record(t, c, 7)
	rp, err := Read(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	rp.Observe() // consumes the initial observation
	rp.Observe() // trace has an exchange here: sequencing violation
	if rp.Done() == nil {
		t.Fatal("sequencing violation not sticky")
	}
}
