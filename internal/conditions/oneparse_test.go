package conditions

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
)

// TestOneParsePerCondition holds the three readers of every value
// language to one parse: for any value, ValidateValue accepts it ⇔
// CompileCond hoists it (dependencies wired, hoistable type) ⇔ Evaluate
// reports no error; and a value one of them rejects is rejected by the
// others with the same text — whether or not the evaluator's dependency
// is wired, and whatever the request carries. Parse comes first: the
// first request below is inside 10.0.0.0/8, matches *phf* and falls on
// a Monday, and still the lists that start that way and end malformed
// are MAYBE for it, as they are for the request that carries nothing.
func TestOneParsePerCondition(t *testing.T) {
	pinned := filepath.Join(t.TempDir(), "passwd")
	if err := os.WriteFile(pinned, []byte("root:x:0:0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	digest, err := HashFile(pinned)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		typ, value string
		wellFormed bool
	}{
		{"system_threat_level", "=high", true},
		{"system_threat_level", ">low", true},
		{"system_threat_level", ">=medium", true},
		{"system_threat_level", "<low", true}, // unsatisfiable, not malformed
		{"system_threat_level", "~bogus", false},
		{"system_threat_level", "high", false},
		{"system_threat_level", "=critical", false},
		{"system_threat_level", "x=high", false},
		{"system_threat_level", "", false},
		{"time_window", "09:00-17:00", true},
		{"time_window", "18:00-08:00", true},
		{"time_window", "09:00-17:00 Mon-Fri", true},
		{"time_window", "09:00-17:00 Sat-Mon", true},
		{"time_window", "09:00-17:00 Mon,Wed", true},
		{"time_window", "09:00-09:00", true}, // empty (E004), not malformed
		{"time_window", "garbage", false},
		{"time_window", "9am-5pm", false},
		{"time_window", "25:00-26:00", false},
		{"time_window", "09:00-17:00 Noday", false},
		{"time_window", "00:00-23:59 Mon,Bogus", false},
		{"time_window", "09:00-17:00 Mon extra", false},
		{"time_window", "", false},
		{"location", "10.0.0.0/8", true},
		{"location", "10.0.0.0/8 192.168.*", true},
		{"location", "128.9.0.0/16 10.* ::1", true},
		{"location", "10.0.0.0/8 999.0.0.0/8", false},
		{"location", "10.0.0.0/33", false},
		{"location", "bad/cidr", false},
		{"location", "", false},
		{"regex", "*phf* *cmd.exe*", true},
		{"regex", "re:^GET /cgi-bin/.*$", true},
		{"regex", "*phf* re:^GET\\s", true},
		{"regex", "re:(", false},
		{"regex", "*phf* re:(", false},
		{"regex", "  ", false},
		{"expr", "input_length>1000", true},
		{"expr", "missing_param<5", true},
		{"expr", "nonsense", false},
		{"expr", ">1000", false},
		{"expr", "input_length>ten", false},
		{"expr", "", false},
		{"quota", "cpu_ms<=50", true},
		{"quota", "<=50", false},
		{"quota", "cpu_ms<=many", false},
		{"threshold", "counter=failed_login key=client_ip max=5 window=60s", true},
		{"threshold", "counter=x max=5 window=60s", false},
		{"threshold", "counter=x key=client_ip max=0 window=60s", false},
		{"threshold", "counter=x key=client_ip max=5 window=often", false},
		{"threshold", "counter key=client_ip max=5 window=60s", false},
		{"threshold", "garbage", false},
		{"file_sha256", pinned + " " + digest, true},
		{"file_sha256", pinned + " " + strings.ToUpper(digest), true},
		{"file_sha256", pinned, false},
		{"file_sha256", pinned + " abc", false},
		{"file_sha256", pinned + " " + digest[:63] + "G", false},
		{"file_sha256", "a b c", false},
	}
	hoistable := map[string]bool{
		"system_threat_level": true, "time_window": true, "location": true, "regex": true, "expr": true,
	}
	wired := Deps{Threat: ids.NewManager(ids.Medium), Groups: groups.NewStore(), Counters: NewCounters(nil)}
	reqs := []*gaa.Request{
		gaa.NewRequest("apache", "GET /cgi-bin/phf?q=x",
			gaa.Param{Type: gaa.ParamClientIP, Authority: "*", Value: "10.1.1.1"},
			gaa.Param{Type: gaa.ParamRequestURI, Authority: "*", Value: "GET /cgi-bin/phf?q=x"},
			gaa.Param{Type: gaa.ParamInputLength, Authority: "*", Value: "2000"},
			gaa.Param{Type: gaa.ParamCPUMillis, Authority: "*", Value: "20"},
		),
		gaa.NewRequest("apache", "GET /x"), // no params at all
	}
	for _, r := range reqs {
		r.Time = time.Date(2026, time.March, 2, 15, 30, 0, 0, time.UTC) // a Monday
	}

	for _, tc := range cases {
		verr := ValidateValue(tc.typ, tc.value)
		if (verr == nil) != tc.wellFormed {
			t.Errorf("%s %q: ValidateValue = %v, want well-formed = %v", tc.typ, tc.value, verr, tc.wellFormed)
			continue
		}
		cond := eacl.Condition{Block: eacl.BlockPre, Type: tc.typ, DefAuth: "local", Value: tc.value}
		for name, deps := range map[string]Deps{"wired": wired, "unwired": {}} {
			ev, ok := Builtin(tc.typ, deps)
			if !ok {
				t.Fatalf("no builtin %q", tc.typ)
			}
			if comp, ok := ev.(gaa.CondCompiler); ok {
				_, compiled := comp.CompileCond(cond)
				want := tc.wellFormed && hoistable[tc.typ] && (name == "wired" || tc.typ != "system_threat_level")
				if compiled != want {
					t.Errorf("%s %q (%s): CompileCond ok = %v, want %v", tc.typ, tc.value, name, compiled, want)
				}
			} else if hoistable[tc.typ] {
				t.Errorf("builtin %q does not implement CondCompiler", tc.typ)
			}
			for ri, req := range reqs {
				out := ev.Evaluate(context.Background(), cond, req)
				switch {
				case verr == nil && out.Err != nil:
					t.Errorf("%s %q (%s, req %d): Evaluate error %v on a value ValidateValue accepts",
						tc.typ, tc.value, name, ri, out.Err)
				case verr != nil && (out.Err == nil || out.Err.Error() != verr.Error()):
					t.Errorf("%s %q (%s, req %d): Evaluate error = %v, ValidateValue = %v",
						tc.typ, tc.value, name, ri, out.Err, verr)
				case verr != nil && tc.typ != "file_sha256" && (out.Result != gaa.Maybe || !out.Unevaluated):
					// file_sha256 is TestFileSHA256DigestCase's: a bad digest is NO.
					t.Errorf("%s %q (%s, req %d): a malformed value answered %+v, want MAYBE unevaluated",
						tc.typ, tc.value, name, ri, out)
				}
			}
		}
	}
}

// TestFileSHA256DigestCase: the one parse accepts a digest in either
// case and normalises it, so the analyzer (E008) no longer rejects what
// the evaluator honours. A digest no file can have — wrong length or
// alphabet — still answers NO, now carrying the validator's error; a
// value that names no file is MAYBE.
func TestFileSHA256DigestCase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "passwd")
	if err := os.WriteFile(path, []byte("root:x:0:0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	digest, err := HashFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := Builtin("file_sha256", Deps{})
	eval := func(value string) gaa.Outcome {
		return ev.Evaluate(context.Background(),
			eacl.Condition{Block: eacl.BlockPost, Type: "file_sha256", DefAuth: "local", Value: value},
			gaa.NewRequest("apache", "GET /x"))
	}
	for _, d := range []string{digest, strings.ToUpper(digest)} {
		value := path + " " + d
		if err := ValidateValue("file_sha256", value); err != nil {
			t.Errorf("ValidateValue(%q) = %v on a digest the evaluator honours", value, err)
		}
		if out := eval(value); out.Result != gaa.Yes || out.Err != nil {
			t.Errorf("Evaluate(%q) = %+v, want YES", value, out)
		}
	}
	for _, d := range []string{"deadbeef", digest[:63] + "G"} {
		value := path + " " + d
		verr := ValidateValue("file_sha256", value)
		out := eval(value)
		if verr == nil || out.Result != gaa.No || out.Class != gaa.ClassRequirement ||
			out.Err == nil || out.Err.Error() != verr.Error() {
			t.Errorf("Evaluate(%q) = %+v, want a requirement NO carrying %v", value, out, verr)
		}
	}
	if out := eval(path); out.Result != gaa.Maybe || !out.Unevaluated || out.Err == nil {
		t.Errorf("Evaluate(%q) = %+v, want MAYBE unevaluated", path, out)
	}
}
