package ids

import (
	"strings"
	"testing"
)

func TestDefaultSignaturesDetectPaperAttacks(t *testing.T) {
	db := NewDB(DefaultSignatures()...)
	tests := []struct {
		name    string
		request string
		want    string // expected signature name, "" for no match
	}{
		{"phf probe", "GET /cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd", "phf"},
		{"test-cgi probe", "GET /cgi-bin/test-cgi?*", "test-cgi"},
		{"slash flood", "GET /" + strings.Repeat("/", 30) + "index.html", "slash-flood"},
		{"nimda traversal", "GET /scripts/..%c0%af../winnt/system32/cmd.exe?/c+dir", "nimda"},
		{"nimda cmd.exe", "GET /msadc/root.exe?/c+dir", "nimda"},
		{"legit page", "GET /index.html", ""},
		{"legit encoded space", "GET /docs/a%20b.html", ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			hits := db.Match(tt.request)
			if tt.want == "" {
				if len(hits) != 0 {
					t.Errorf("unexpected hits %v for %q", names(hits), tt.request)
				}
				return
			}
			if len(hits) == 0 {
				t.Fatalf("no hit for %q, want %q", tt.request, tt.want)
			}
			found := false
			for _, h := range hits {
				if h.Name == tt.want {
					found = true
				}
			}
			if !found {
				t.Errorf("hits = %v, want to include %q", names(hits), tt.want)
			}
		})
	}
}

func names(sigs []Signature) []string {
	out := make([]string, len(sigs))
	for i, s := range sigs {
		out[i] = s.Name
	}
	return out
}

func TestDBAddAndLen(t *testing.T) {
	db := NewDB()
	if db.Len() != 0 {
		t.Fatalf("Len = %d, want 0", db.Len())
	}
	db.Add(Signature{Name: "custom", Patterns: []string{"*evil*"}, Severity: SevMedium, Kind: "custom"})
	if db.Len() != 1 {
		t.Fatalf("Len = %d, want 1", db.Len())
	}
	if hits := db.Match("GET /evil/path"); len(hits) != 1 || hits[0].Name != "custom" {
		t.Errorf("Match = %v", names(hits))
	}
}

func TestSignatureMultiplePatterns(t *testing.T) {
	db := NewDB(Signature{Name: "ab", Patterns: []string{"*a*", "*b*"}})
	for s, want := range map[string]bool{"xxbxx": true, "xaxx": true, "cc": false} {
		if _, got := db.First(s, ""); got != want {
			t.Errorf("First(%q) matched = %v, want %v", s, got, want)
		}
	}
}

// TestDBFirstIsMatchFirst holds the first-hit query to Match: the
// first signature in registration order that matches, among those
// with the wanted name when one is given.
func TestDBFirstIsMatchFirst(t *testing.T) {
	db := NewDB(DefaultSignatures()...)
	db.Add(Signature{Name: "phf-again", Patterns: []string{"*phf*"}})
	for _, s := range []string{
		"GET /cgi-bin/phf?Qalias=x", "GET /scripts/..%c0%af../cmd.exe", "GET /index.html", "",
	} {
		hits := db.Match(s)
		for _, name := range []string{"", "phf", "phf-again", "nimda", "absent"} {
			var want *Signature
			for i := range hits {
				if name == "" || hits[i].Name == name {
					want = &hits[i]
					break
				}
			}
			got, ok := db.First(s, name)
			if ok != (want != nil) || ok && got.Name != want.Name {
				t.Errorf("First(%q, %q) = %q, %v; Match says %v", s, name, got.Name, ok, names(hits))
			}
		}
	}
}

func TestReportKindStrings(t *testing.T) {
	kinds := map[ReportKind]string{
		IllFormedRequest:      "ill_formed_request",
		AbnormalParameters:    "abnormal_parameters",
		SensitiveAccessDenial: "sensitive_access_denial",
		ThresholdViolation:    "threshold_violation",
		DetectedAttack:        "detected_attack",
		UnusualBehavior:       "unusual_behavior",
		LegitimatePattern:     "legitimate_pattern",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if ReportKind(0).String() != "ReportKind(0)" {
		t.Error("unknown kind String mismatch")
	}
	if SevInfo.String() != "info" || SevMedium.String() != "medium" || SevHigh.String() != "high" {
		t.Error("Severity.String mismatch")
	}
	if Severity(9).String() != "Severity(9)" {
		t.Error("unknown Severity.String mismatch")
	}
}
