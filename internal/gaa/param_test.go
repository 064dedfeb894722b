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

// plainASCIIBytes is PlainASCII's definition, one byte at a time.
func plainASCIIBytes(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// FuzzPlainASCII holds the word-at-a-time scan to the byte loop. Each
// seed is one byte value between the highest and between the lowest
// printable bytes, and every suffix is checked, so each value sits alone
// at every offset of a word, beside the bytes a carry or borrow would
// reach.
func FuzzPlainASCII(f *testing.F) {
	f.Add("GET /index.html HTTP/1.0")
	f.Add("POST /" + strings.Repeat("A", 1200))
	for b := 0; b < 256; b++ {
		for _, pad := range []string{"~~~~~~~~", "        "} {
			f.Add(pad + string([]byte{byte(b)}) + pad)
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		for i := 0; i <= len(s) && i < 16; i++ {
			if got, want := PlainASCII(s[i:]), plainASCIIBytes(s[i:]); got != want {
				t.Fatalf("PlainASCII(%q) = %v, the byte loop says %v", s[i:], got, want)
			}
		}
	})
}

// BenchmarkPlainASCII times the scan on a short request line and on the
// 1.2 KB line of the overflow attack, which the guard classifies and
// the access log and the alert quote.
func BenchmarkPlainASCII(b *testing.B) {
	for _, bc := range []struct{ name, s string }{
		{"short", "GET /docs/guide.html HTTP/1.0"},
		{"overflow-1.2KB", "GET /cgi-bin/test-cgi?" + strings.Repeat("A", 1200) + " HTTP/1.0"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.s)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !PlainASCII(bc.s) {
					b.Fatal("not plain")
				}
			}
		})
	}
}
