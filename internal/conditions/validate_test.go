package conditions

import (
	"testing"
	"time"
)

// The TestValidate* tests hold each value language's parse, read
// through AtomsOf: the error the analyzer reports as E001–E008.

// parseErr is the error of the named type's own parse of value.
func parseErr(typ, value string) error {
	_, err := AtomsOf(typ, value)
	return err
}

func TestValidateRegexList(t *testing.T) {
	if err := parseErr("regex", "*phf* *test-cgi* re:^GET\\s"); err != nil {
		t.Errorf("valid list rejected: %v", err)
	}
	if err := parseErr("regex", "re:[unclosed"); err == nil {
		t.Error("bad regexp accepted")
	}
	if err := parseErr("regex", "  "); err == nil {
		t.Error("empty list accepted")
	}
}

func TestValidateLocationList(t *testing.T) {
	if err := parseErr("location", "128.9.0.0/16 10.* ::1"); err != nil {
		t.Errorf("valid list rejected: %v", err)
	}
	if err := parseErr("location", "300.0.0.0/8"); err == nil {
		t.Error("bad CIDR accepted")
	}
	if err := parseErr("location", "10.0.0.0/33"); err == nil {
		t.Error("bad prefix length accepted")
	}
	if err := parseErr("location", ""); err == nil {
		t.Error("empty list accepted")
	}
}

func TestParseTimeWindowSpec(t *testing.T) {
	window := func(s string) TimeWindow {
		t.Helper()
		a, err := AtomsOf("time_window", s)
		if err != nil {
			t.Fatalf("AtomsOf(time_window, %q): %v", s, err)
		}
		return a.Window
	}
	w := window("09:00-17:00 Mon-Fri")
	if w.Start != 9*60 || w.End != 17*60 {
		t.Errorf("window = [%d,%d), want [540,1020)", w.Start, w.End)
	}
	if w.Days[time.Sunday] || !w.Days[time.Monday] || !w.Days[time.Friday] || w.Days[time.Saturday] {
		t.Errorf("days = %v, want Mon-Fri", w.Days)
	}
	if w.Empty() {
		t.Error("business hours reported empty")
	}

	for _, bad := range []string{"", "9am-5pm", "09:00", "09:00-17:00 Xyz", "09:00-17:00 Mon extra"} {
		if _, err := AtomsOf("time_window", bad); err == nil {
			t.Errorf("AtomsOf(time_window, %q) accepted", bad)
		}
	}
}

func TestTimeWindowEmptyAndIntersects(t *testing.T) {
	parse := func(s string) TimeWindow {
		t.Helper()
		a, err := AtomsOf("time_window", s)
		if err != nil {
			t.Fatalf("AtomsOf(time_window, %q): %v", s, err)
		}
		return a.Window
	}
	if !parse("09:00-09:00").Empty() {
		t.Error("zero-length window not reported empty")
	}
	if parse("22:00-06:00").Empty() {
		t.Error("midnight-wrapping window reported empty")
	}

	// Two windows intersect when some minute of the week lies inside
	// both, as the evaluator's own containment test sees it.
	week := time.Date(2024, 1, 7, 0, 0, 0, 0, time.UTC) // a Sunday
	intersects := func(a, b TimeWindow) bool {
		for m := 0; m < 7*24*60; m++ {
			at := week.Add(time.Duration(m) * time.Minute)
			_, inA := a.contains(at)
			_, inB := b.contains(at)
			if inA && inB {
				return true
			}
		}
		return false
	}
	tests := []struct {
		a, b string
		want bool
	}{
		{"09:00-17:00", "16:00-18:00", true},
		{"09:00-12:00", "12:00-17:00", false}, // half-open: [a,b)
		{"09:00-17:00 Mon-Fri", "10:00-11:00 Sat,Sun", false},
		{"09:00-17:00 Mon", "10:00-11:00 Mon", true},
		{"22:00-06:00", "05:00-07:00", true}, // wrap reaches early morning
		{"22:00-06:00", "07:00-21:00", false},
		{"22:00-02:00", "23:00-01:00", true},
	}
	for _, tt := range tests {
		a, b := parse(tt.a), parse(tt.b)
		if got := intersects(a, b); got != tt.want {
			t.Errorf("intersects(%q, %q) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
		if got := intersects(b, a); got != tt.want {
			t.Errorf("intersects(%q, %q) = %v, want %v (symmetry)", tt.b, tt.a, got, tt.want)
		}
	}
}

func TestValidateThresholdSpec(t *testing.T) {
	if err := parseErr("threshold", "counter=failed_login key=client_ip max=5 window=60s"); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	for _, bad := range []string{
		"counter=x max=5 window=60s",          // missing key
		"key=ip max=5 window=60s",             // missing counter
		"counter=x key=ip max=0 window=60s",   // non-positive max
		"counter=x key=ip max=n window=60s",   // non-numeric max
		"counter=x key=ip max=5 window=-10s",  // negative window
		"counter=x key=ip max=5 window=often", // bad duration
		"counter key=ip max=5 window=60s",     // bare token
	} {
		if err := parseErr("threshold", bad); err == nil {
			t.Errorf("AtomsOf(threshold, %q) accepted", bad)
		}
	}
}

func TestValidateComparison(t *testing.T) {
	for _, typ := range []string{"expr", "quota"} {
		for _, good := range []string{"input_length>1000", "cpu_ms<=50", "retries!=0"} {
			if err := parseErr(typ, good); err != nil {
				t.Errorf("AtomsOf(%s, %q): %v", typ, good, err)
			}
		}
		for _, bad := range []string{"input_length", ">1000", "input_length>ten", ""} {
			if err := parseErr(typ, bad); err == nil {
				t.Errorf("AtomsOf(%s, %q) accepted", typ, bad)
			}
		}
	}
}

func TestValidateSHA256Spec(t *testing.T) {
	good := "/etc/passwd ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
	if err := parseErr("file_sha256", good); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	for _, bad := range []string{
		"/etc/passwd",                      // no digest
		"/etc/passwd abc",                  // short digest
		"/etc/passwd " + good[13:76] + "G", // non-hex
		"a b c",                            // too many fields
	} {
		if err := parseErr("file_sha256", bad); err == nil {
			t.Errorf("AtomsOf(file_sha256, %q) accepted", bad)
		}
	}
}

func TestAtomsOfDispatch(t *testing.T) {
	if err := parseErr("regex", "re:[bad"); err == nil {
		t.Error("dispatch missed bad regex")
	}
	if err := parseErr("expr", "input_length>@max_input"); err == nil {
		t.Error("an unresolved runtime value reference parsed as a number")
	}
	if err := parseErr("accessid_USER", "anything at all"); err != nil {
		t.Errorf("unchecked type should pass: %v", err)
	}
	if err := parseErr("time_window", "25:00-26:00"); err == nil {
		t.Error("dispatch missed bad time window")
	}
}
