package gaa

import (
	"encoding/binary"
	"strconv"
	"strings"
)

// Well-known parameter types extracted from an application request.
// Parameters are classified with a type and an authority "so that
// GAA-API routines that evaluate conditions with the same type and
// authority could find the relevant parameters" (paper section 6).
const (
	ParamClientIP    = "client_ip"     // dotted-quad client address
	ParamClientHost  = "client_host"   // resolved client host name
	ParamRequestURI  = "request_uri"   // method + URI, e.g. "GET /cgi-bin/phf?x=1"
	ParamMethod      = "method"        // HTTP method
	ParamQuery       = "query"         // raw query string
	ParamUser        = "accessid_USER" // authenticated user identity
	ParamGroupKey    = "group_key"     // identity checked against groups (defaults to client_ip)
	ParamInputLength = "input_length"  // length of input passed to the operation (CGI input)
	ParamHeaderCount = "header_count"  // number of request headers
	ParamObject      = "object"        // the protected object (file system path)

	// Execution-phase usage parameters (mid-conditions).
	ParamCPUMillis    = "cpu_ms"
	ParamWallMillis   = "wall_ms"
	ParamMemBytes     = "mem_bytes"
	ParamOutputBytes  = "output_bytes"
	ParamOpStatusName = "op_status" // "yes"/"no", post-condition phase
)

// AuthorityAny marks parameters meaningful to any defining authority.
const AuthorityAny = "*"

// Param is one typed request parameter.
type Param struct {
	Type      string
	Authority string
	Value     string
}

// ParamList is an ordered list of request parameters with typed lookup.
type ParamList []Param

// Get returns the first parameter of the given type whose authority
// matches (exact match, or either side being AuthorityAny).
func (ps ParamList) Get(paramType, authority string) (string, bool) {
	for _, p := range ps {
		if p.Type != paramType {
			continue
		}
		if p.Authority == authority || p.Authority == AuthorityAny || authority == AuthorityAny {
			return p.Value, true
		}
	}
	return "", false
}

// GetInt is Get followed by integer conversion; ok is false if the
// parameter is missing or not an integer.
func (ps ParamList) GetInt(paramType, authority string) (int64, bool) {
	s, ok := ps.Get(paramType, authority)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// With returns a copy of the list with extra parameters appended; the
// receiver is never mutated. Appending nothing returns the receiver
// unchanged (no copy).
func (ps ParamList) With(extra ...Param) ParamList {
	if len(extra) == 0 {
		return ps
	}
	out := make(ParamList, 0, len(ps)+len(extra))
	out = append(out, ps...)
	out = append(out, extra...)
	return out
}

// AppendQuoted appends the concatenation of parts to dst the way
// strconv.AppendQuote does — the rendering of a request URI in the
// access log and in alerts. A value PlainASCII accepts, which is nearly
// every URI, is copied between quotes without the rune-by-rune walk and
// without joining the parts.
func AppendQuoted(dst []byte, parts ...string) []byte {
	for _, s := range parts {
		if !PlainASCII(s) {
			return strconv.AppendQuote(dst, strings.Join(parts, ""))
		}
	}
	dst = append(dst, '"')
	for _, s := range parts {
		dst = append(dst, s...)
	}
	return append(dst, '"')
}

// PlainASCII reports whether strconv.Quote copies s unchanged: printable
// ASCII, no '"' or '\\'. It tests eight bytes a step — w or w+1 has a
// high bit for a byte ≥ 0x7f, w-0x20 borrows for one < 0x20, w XOR '"'
// or '\\' for a match — and a borrow or carry leaves only a flagged byte.
func PlainASCII(s string) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	// s shrinks by a word a step, so one length test covers the load.
	for ; len(s) >= 8; s = s[8:] {
		w := binary.LittleEndian.Uint64([]byte(s[:8]))
		quote, backslash := w^'"'*ones, w^'\\'*ones
		if (w|(w+ones)|(w-0x20*ones)&^w|(quote-ones)&^quote|(backslash-ones)&^backslash)&highs != 0 {
			return false
		}
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}
