package gaa

import (
	"strconv"
	"strings"
	"testing"
)

func TestParamListGet(t *testing.T) {
	ps := ParamList{
		{Type: ParamClientIP, Authority: AuthorityAny, Value: "10.0.0.1"},
		{Type: ParamUser, Authority: "apache", Value: "alice"},
		{Type: ParamUser, Authority: "sshd", Value: "bob"},
	}
	tests := []struct {
		name      string
		typ, auth string
		want      string
		wantOK    bool
	}{
		{"wildcard param any auth", ParamClientIP, "local", "10.0.0.1", true},
		{"exact authority", ParamUser, "apache", "alice", true},
		{"other authority", ParamUser, "sshd", "bob", true},
		{"caller wildcard takes first", ParamUser, AuthorityAny, "alice", true},
		{"missing", "nonexistent", AuthorityAny, "", false},
		{"authority mismatch", ParamUser, "ftp", "", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := ps.Get(tt.typ, tt.auth)
			if got != tt.want || ok != tt.wantOK {
				t.Errorf("Get(%q, %q) = %q, %v; want %q, %v", tt.typ, tt.auth, got, ok, tt.want, tt.wantOK)
			}
		})
	}
}

func TestParamListGetInt(t *testing.T) {
	ps := ParamList{
		{Type: ParamInputLength, Authority: AuthorityAny, Value: "1200"},
		{Type: "bad_number", Authority: AuthorityAny, Value: "12x0"},
	}
	if n, ok := ps.GetInt(ParamInputLength, "local"); !ok || n != 1200 {
		t.Errorf("GetInt = %d, %v; want 1200, true", n, ok)
	}
	if _, ok := ps.GetInt("bad_number", "local"); ok {
		t.Error("GetInt on non-numeric value should fail")
	}
	if _, ok := ps.GetInt("missing", "local"); ok {
		t.Error("GetInt on missing param should fail")
	}
}

func TestParamListWithDoesNotMutate(t *testing.T) {
	base := ParamList{{Type: "a", Authority: "*", Value: "1"}}
	ext := base.With(Param{Type: "b", Authority: "*", Value: "2"})
	if len(base) != 1 {
		t.Errorf("base mutated: %v", base)
	}
	if len(ext) != 2 {
		t.Errorf("extended list = %v", ext)
	}
	if _, ok := ext.Get("b", "*"); !ok {
		t.Error("extended list missing appended param")
	}
}

// TestAppendQuotedMatchesStrconv: the fast path is invisible — every
// single byte, and the shapes a request URI takes, render as
// strconv.AppendQuote renders them, after whatever dst already held.
func TestAppendQuotedMatchesStrconv(t *testing.T) {
	subjects := []string{
		"", "GET /index.html", `GET /a"b`, `GET /a\b`, "GET /caf\u00e9", "GET /bad\xff\xfe",
		"POST /" + strings.Repeat("A", 1200), "POST /" + strings.Repeat("A", 1200) + "\n",
	}
	for b := 0; b < 256; b++ {
		subjects = append(subjects, "GET /"+string([]byte{byte(b)})+"/x")
	}
	for _, s := range subjects {
		want := string(strconv.AppendQuote([]byte("kept|"), s))
		if got := string(AppendQuoted([]byte("kept|"), s)); got != want {
			t.Errorf("AppendQuoted(%q) = %s, want %s", s, got, want)
		}
	}
}
