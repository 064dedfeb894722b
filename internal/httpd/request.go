package httpd

import (
	"encoding/base64"
	"net"
	"net/http"
	"strings"
	"time"

	"gaaapi/internal/gaa"
)

// RequestRec is the server's per-request record, the analog of
// Apache's request_rec: everything guards and loggers need, extracted
// once (paper section 6 step 2b: "the context information ... is
// extracted from the request_rec structure").
type RequestRec struct {
	Time     time.Time
	Method   string
	Path     string // the object: the document the URL path names (objectPath)
	Query    string // raw query string
	URI      string // method + original request URI, the signature subject
	ClientIP string
	// target is the original request URI; URI is built from it only
	// once the source has passed the firewall.
	target string
	// plain is PlainURI's answer once plainRead is set.
	plain, plainRead bool
	// User is the authenticated user, empty when anonymous.
	User string
	// AuthAttempted reports whether credentials were presented (even
	// invalid ones).
	AuthAttempted bool
	// AuthFailed reports presented-but-invalid credentials.
	AuthFailed bool

	HeaderCount int
	// InputLength models the input handed to the requested operation:
	// query string plus request body length (the paper's CGI
	// buffer-overflow detector measures it).
	InputLength int
}

// Authenticator verifies user credentials (htpasswd-backed in this
// substrate).
type Authenticator interface {
	Authenticate(user, password string) bool
}

// NewRequestRec builds the record from an incoming request,
// authenticating Basic credentials against auth (nil auth rejects all
// credentials).
func NewRequestRec(r *http.Request, auth Authenticator, now time.Time) *RequestRec {
	rec := new(RequestRec)
	fillRequestRec(rec, r, auth, now)
	rec.buildURI()
	return rec
}

// fillRequestRec overwrites every field of a pooled rec but URI and
// PlainURI's answer, which it clears, one by one: a composite literal
// is copied in under the GC's bulk write barrier.
func fillRequestRec(rec *RequestRec, r *http.Request, auth Authenticator, now time.Time) {
	rec.Time = now
	rec.Method = r.Method
	rec.Path = objectPath(r.URL.Path)
	rec.Query = r.URL.RawQuery
	rec.target = r.RequestURI
	if rec.target == "" {
		// Outside a real server loop (tests building requests by hand)
		// RequestURI is unset; reconstruct it.
		rec.target = r.URL.RequestURI()
	}
	rec.URI, rec.plainRead = "", false
	rec.ClientIP = clientIP(r.RemoteAddr)
	rec.HeaderCount = len(r.Header)
	rec.InputLength = len(r.URL.RawQuery) + int(max64(r.ContentLength, 0))
	rec.User, rec.AuthAttempted, rec.AuthFailed = "", false, false
	if user, pass, ok := basicAuth(r); ok {
		rec.AuthAttempted = true
		if auth != nil && auth.Authenticate(user, pass) {
			rec.User = user
		} else {
			rec.AuthFailed = true
		}
	}
}

// buildURI sets URI, the request line: the one string of the record
// that outlives the request (it is the ParamRequestURI the response
// actions quote).
func (r *RequestRec) buildURI() {
	r.URI = r.Method + " " + r.target
}

// PlainURI reports gaa.PlainASCII(URI), reading the line at most once
// per request: the guard's ill-formed check, the alert that quotes the
// line and the access log share the answer.
func (r *RequestRec) PlainURI() bool {
	if !r.plainRead {
		r.plain, r.plainRead = gaa.PlainASCII(r.URI), true
	}
	return r.plain
}

// Object returns the protected object the request addresses: the
// document its URL path names, which maps onto the policy directory tree.
func (r *RequestRec) Object() string {
	return r.Path
}

// basicAuth decodes an Authorization: Basic header. We parse manually
// rather than via (*http.Request).BasicAuth to keep the substrate's
// behaviour explicit for malformed headers (they count as an attempt).
func basicAuth(r *http.Request) (user, pass string, ok bool) {
	h := r.Header.Get("Authorization")
	if h == "" {
		return "", "", false
	}
	const prefix = "Basic "
	if !strings.HasPrefix(h, prefix) {
		return "", "", false
	}
	raw, err := base64.StdEncoding.DecodeString(h[len(prefix):])
	if err != nil {
		return "", "", true // malformed credentials: an attempt that fails
	}
	user, pass, found := strings.Cut(string(raw), ":")
	if !found {
		return "", "", true
	}
	return user, pass, true
}

// clientIP strips the port from a RemoteAddr.
func clientIP(remoteAddr string) string {
	host, _, err := net.SplitHostPort(remoteAddr)
	if err != nil {
		return remoteAddr
	}
	return host
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
