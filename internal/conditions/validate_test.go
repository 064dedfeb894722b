package conditions

import (
	"testing"
	"time"

	"gaaapi/internal/ids"
)

func TestValidateRegexList(t *testing.T) {
	if err := ValidateValue("regex", "*phf* *test-cgi* re:^GET\\s"); err != nil {
		t.Errorf("valid list rejected: %v", err)
	}
	if err := ValidateValue("regex", "re:[unclosed"); err == nil {
		t.Error("bad regexp accepted")
	}
	if err := ValidateValue("regex", "  "); err == nil {
		t.Error("empty list accepted")
	}
}

func TestValidateLocationList(t *testing.T) {
	if err := ValidateValue("location", "128.9.0.0/16 10.* ::1"); err != nil {
		t.Errorf("valid list rejected: %v", err)
	}
	if err := ValidateValue("location", "300.0.0.0/8"); err == nil {
		t.Error("bad CIDR accepted")
	}
	if err := ValidateValue("location", "10.0.0.0/33"); err == nil {
		t.Error("bad prefix length accepted")
	}
	if err := ValidateValue("location", ""); err == nil {
		t.Error("empty list accepted")
	}
}

func TestParseTimeWindowSpec(t *testing.T) {
	w, err := ParseTimeWindowSpec("09:00-17:00 Mon-Fri")
	if err != nil {
		t.Fatalf("ParseTimeWindowSpec: %v", err)
	}
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
		if _, err := ParseTimeWindowSpec(bad); err == nil {
			t.Errorf("ParseTimeWindowSpec(%q) accepted", bad)
		}
	}
}

func TestTimeWindowEmptyAndIntersects(t *testing.T) {
	parse := func(s string) TimeWindow {
		t.Helper()
		w, err := ParseTimeWindowSpec(s)
		if err != nil {
			t.Fatalf("ParseTimeWindowSpec(%q): %v", s, err)
		}
		return w
	}
	if !parse("09:00-09:00").Empty() {
		t.Error("zero-length window not reported empty")
	}
	if parse("22:00-06:00").Empty() {
		t.Error("midnight-wrapping window reported empty")
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
		if got := a.Intersects(b); got != tt.want {
			t.Errorf("Intersects(%q, %q) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
		if got := b.Intersects(a); got != tt.want {
			t.Errorf("Intersects(%q, %q) = %v, want %v (symmetry)", tt.b, tt.a, got, tt.want)
		}
	}
}

func TestValidateThresholdSpec(t *testing.T) {
	if err := ValidateValue("threshold", "counter=failed_login key=client_ip max=5 window=60s"); err != nil {
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
		if err := ValidateValue("threshold", bad); err == nil {
			t.Errorf("ValidateValue(threshold, %q) accepted", bad)
		}
	}
}

func TestValidateComparison(t *testing.T) {
	for _, typ := range []string{"expr", "quota"} {
		for _, good := range []string{"input_length>1000", "cpu_ms<=50", "retries!=0"} {
			if err := ValidateValue(typ, good); err != nil {
				t.Errorf("ValidateValue(%s, %q): %v", typ, good, err)
			}
		}
		for _, bad := range []string{"input_length", ">1000", "input_length>ten", ""} {
			if err := ValidateValue(typ, bad); err == nil {
				t.Errorf("ValidateValue(%s, %q) accepted", typ, bad)
			}
		}
	}
}

func TestThreatLevelSet(t *testing.T) {
	tests := []struct {
		value string
		want  []ids.Level
	}{
		{"=high", []ids.Level{ids.High}},
		{">low", []ids.Level{ids.Medium, ids.High}},
		{"<=medium", []ids.Level{ids.Low, ids.Medium}},
		{"<low", nil}, // legal but unsatisfiable
		{"!=medium", []ids.Level{ids.Low, ids.High}},
	}
	for _, tt := range tests {
		got, err := ThreatLevelSet(tt.value)
		if err != nil {
			t.Errorf("ThreatLevelSet(%q): %v", tt.value, err)
			continue
		}
		if len(got) != len(tt.want) {
			t.Errorf("ThreatLevelSet(%q) = %v, want %v", tt.value, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("ThreatLevelSet(%q) = %v, want %v", tt.value, got, tt.want)
				break
			}
		}
	}
	for _, bad := range []string{"high", "=severe", "level=high", ""} {
		if _, err := ThreatLevelSet(bad); err == nil {
			t.Errorf("ThreatLevelSet(%q) accepted", bad)
		}
	}
}

func TestValidateSHA256Spec(t *testing.T) {
	good := "/etc/passwd ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
	if err := ValidateValue("file_sha256", good); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	for _, bad := range []string{
		"/etc/passwd",                      // no digest
		"/etc/passwd abc",                  // short digest
		"/etc/passwd " + good[13:76] + "G", // non-hex
		"a b c",                            // too many fields
	} {
		if err := ValidateValue("file_sha256", bad); err == nil {
			t.Errorf("ValidateValue(file_sha256, %q) accepted", bad)
		}
	}
}

func TestValidateValueDispatch(t *testing.T) {
	if err := ValidateValue("regex", "re:[bad"); err == nil {
		t.Error("dispatch missed bad regex")
	}
	if err := ValidateValue("expr", "input_length>@max_input"); err != nil {
		t.Errorf("runtime value reference should be skipped: %v", err)
	}
	if err := ValidateValue("accessid_USER", "anything at all"); err != nil {
		t.Errorf("unchecked type should pass: %v", err)
	}
	if err := ValidateValue("time_window", "25:00-26:00"); err == nil {
		t.Error("dispatch missed bad time window")
	}
}
