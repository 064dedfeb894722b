package httpd

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gaaapi/internal/execctl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/netblock"
)

// Verdict is a guard's full answer: the access status plus optional
// hooks for the later request phases (the deciding guard's
// mid-conditions and post-conditions).
//
// The server calls Post exactly once on every path through execute
// that returns, after execctl.Run has returned and no Monitor call can
// follow, and after a mounted handler returns (which runs unmonitored);
// a guard may release what its hooks share as Post's last act. A
// verdict that does not reach an operation (forbidden, auth required,
// moved), or whose operation panics, has neither hook run.
type Verdict struct {
	Status AccessStatus
	// Monitor, when non-nil, is polled with usage snapshots during
	// operation execution; returning false aborts the operation
	// (execution-control phase). Calls come from a timer goroutine,
	// one at a time.
	Monitor func(execctl.Snapshot) bool
	// Post, when non-nil, runs after the operation with its success
	// status (post-execution phase).
	Post func(success bool)
}

// Guard is an access-control module in the server's check-access
// phase. Guards run in order; the first non-declined status decides.
type Guard interface {
	Check(rec *RequestRec) Verdict
}

// GuardFunc adapts a function to Guard.
type GuardFunc func(rec *RequestRec) Verdict

// Check implements Guard.
func (f GuardFunc) Check(rec *RequestRec) Verdict { return f(rec) }

// Config assembles a Server.
type Config struct {
	// DocRoot maps objects ("/index.html") to static content; it is
	// wrapped as a MapRoot when Files is nil.
	DocRoot map[string]string
	// Files, when non-nil, resolves static documents (e.g. an OSRoot
	// serving a directory on disk) and takes precedence over DocRoot.
	Files FileRoot
	// Scripts serves /cgi-bin/<name> requests.
	Scripts *ScriptRegistry
	// Mounts serves objects by handler, after the access-control phase
	// like any document. A mounted object is one of the server's own
	// endpoints (RequestRec.Mount), not site content.
	Mounts map[string]http.Handler
	// Guards run in order during the access-control phase (e.g. the
	// GAA guard first, the htaccess baseline second).
	Guards []Guard
	// Auth verifies Basic credentials when building request records.
	Auth Authenticator
	// Blocks, when non-nil, is the simulated firewall consulted before
	// anything else.
	Blocks *netblock.Set
	// AccessLog, when non-nil, receives common-log-format lines.
	AccessLog io.Writer
	// Clock overrides time.Now.
	Clock func() time.Time
	// MonitorInterval is the mid-condition polling period (default
	// 500µs).
	MonitorInterval time.Duration
}

// Server is the Apache-analog web server. It implements http.Handler.
type Server struct {
	cfg Config
	// clfTime is the access log's timestamp of the current second.
	clfTime atomic.Pointer[clfStamp]
}

var _ http.Handler = (*Server)(nil)

// NewServer builds a server; zero-value config fields get defaults.
func NewServer(cfg Config) *Server {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.MonitorInterval <= 0 {
		cfg.MonitorInterval = 500 * time.Microsecond
	}
	if cfg.Files == nil {
		cfg.Files = MapRoot(cfg.DocRoot)
	}
	if cfg.Scripts == nil {
		cfg.Scripts = NewScriptRegistry()
	}
	return &Server{cfg: cfg}
}

// recPool recycles request records: guards receive the record only
// for the duration of the check-access phase and must not retain it.
var recPool = sync.Pool{New: func() any { return new(RequestRec) }}

// maxPooledBuf is the largest line buffer a pool keeps: a pathological
// URI's buffer is not kept.
const maxPooledBuf = 4096

// putRec returns rec to recPool once its request is over, with the
// borrowed URI cleared.
func putRec(rec *RequestRec) {
	rec.URI = ""
	if cap(rec.line) > maxPooledBuf {
		rec.line = nil
	}
	recPool.Put(rec)
}

// opScratch bundles the per-operation execution state so one pool hit
// covers the usage accounting, the response body buffer, what a script
// is handed, and check, the verdict's Monitor as an execctl.Check.
type opScratch struct {
	usage   execctl.Usage
	body    bytes.Buffer
	cgi     CGIContext
	monitor func(execctl.Snapshot) bool
	check   execctl.Check
}

var scratchPool = sync.Pool{New: func() any {
	sc := new(opScratch)
	sc.check = func(snap execctl.Snapshot) gaa.Decision {
		if sc.monitor(snap) {
			return gaa.Yes
		}
		return gaa.No
	}
	return sc
}}

// Write appends to the body and credits the bytes to the usage.
func (sc *opScratch) Write(p []byte) (int, error) {
	n, err := sc.body.Write(p)
	sc.usage.AddOutput(int64(n))
	return n, err
}

// ServeHTTP runs the three phases of the paper's integration: access
// control, monitored execution, post-execution actions — then logs.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := recPool.Get().(*RequestRec)
	defer putRec(rec)
	fillRequestRec(rec, r, s.cfg.Auth, s.cfg.Clock())

	// Simulated firewall: blocked sources are dropped before the
	// access-control phase, like a connection-level rule, and before
	// the request line is built: a drop allocates nothing.
	if s.cfg.Blocks != nil && s.cfg.Blocks.Blocked(rec.ClientIP) {
		s.finish(w, rec, http.StatusForbidden, bodyBlocked)
		return
	}
	rec.buildURI()
	rec.Mount = s.cfg.Mounts[rec.Path]

	verdict := s.checkAccess(rec)
	switch verdict.Status.Kind {
	case StatusForbidden:
		s.finish(w, rec, http.StatusForbidden, bodyDenied)
		return
	case StatusAuthRequired:
		w.Header().Set("WWW-Authenticate", verdict.Status.Challenge)
		s.finish(w, rec, http.StatusUnauthorized, bodyAuthRequired)
		return
	case StatusMoved:
		w.Header().Set("Location", verdict.Status.Location)
		s.finish(w, rec, http.StatusFound, nil)
		return
	}
	// StatusOK, or StatusDeclined by every guard: default allow, the
	// operation executes.
	if rec.Mount != nil {
		// A mounted handler writes its own response, outside execution
		// control; Post and the log line read the status it answered.
		mw := &mountWriter{ResponseWriter: w, code: http.StatusOK}
		rec.Mount.ServeHTTP(mw, r)
		s.runPost(verdict, mw.code < http.StatusInternalServerError)
		s.logCLF(rec, mw.code, mw.bytes)
		return
	}
	s.execute(r.Context(), w, rec, verdict)
}

// checkAccess runs the guards; the first non-declined verdict decides.
func (s *Server) checkAccess(rec *RequestRec) Verdict {
	for _, g := range s.cfg.Guards {
		v := g.Check(rec)
		if v.Status.Kind != StatusDeclined {
			return v
		}
	}
	return Verdict{Status: OK("default: all guards declined")}
}

// execute performs the requested operation under execution control.
func (s *Server) execute(ctx context.Context, w http.ResponseWriter, rec *RequestRec, verdict Verdict) {
	sc := scratchPool.Get().(*opScratch)
	defer scratchPool.Put(sc)
	sc.usage.Reset(s.cfg.Clock)
	sc.body.Reset()
	usage := &sc.usage
	body := &sc.body

	var op func(context.Context, *execctl.Usage) error
	switch {
	case strings.HasPrefix(rec.Path, "/cgi-bin/"):
		name := strings.TrimPrefix(rec.Path, "/cgi-bin/")
		script, ok := s.cfg.Scripts.Get(name)
		if !ok {
			s.runPost(verdict, false)
			s.finish(w, rec, http.StatusNotFound, bodyNoScript)
			return
		}
		sc.cgi = CGIContext{Rec: rec, Usage: usage, Out: sc}
		op = func(ctx context.Context, _ *execctl.Usage) error {
			return script(ctx, &sc.cgi)
		}
	default:
		content, ok, err := s.cfg.Files.Open(rec.Path)
		if err != nil {
			s.runPost(verdict, false)
			s.finish(w, rec, http.StatusInternalServerError, bodyDocError)
			return
		}
		if !ok {
			s.runPost(verdict, false)
			s.finish(w, rec, http.StatusNotFound, bodyNotFound)
			return
		}
		op = func(_ context.Context, u *execctl.Usage) error {
			n, err := body.WriteString(content)
			u.AddOutput(int64(n))
			return err
		}
	}

	var check execctl.Check
	if verdict.Monitor != nil {
		sc.monitor, check = verdict.Monitor, sc.check
	}
	res := execctl.Run(ctx, usage, op, check, s.cfg.MonitorInterval)

	success := res.Err == nil && !res.Violated
	s.runPost(verdict, success)

	switch {
	case res.Violated:
		s.finish(w, rec, http.StatusInternalServerError, bodyAborted)
	case res.Err != nil && !errors.Is(res.Err, context.Canceled):
		s.finish(w, rec, http.StatusInternalServerError, bodyFailed)
	default:
		s.logCLF(rec, http.StatusOK, body.Len())
		w.WriteHeader(http.StatusOK)
		if rec.Method != "HEAD" {
			_, _ = w.Write(body.Bytes())
		}
	}
}

func (s *Server) runPost(verdict Verdict, success bool) {
	if verdict.Post != nil {
		verdict.Post(success)
	}
}

// The terminal responses' bodies, written as they are: a string body
// would be copied per response by a writer without WriteString. Why a
// request ended surfaces in the guards' own audit trails.
var (
	bodyBlocked      = []byte("address blocked\n")
	bodyDenied       = []byte("Permission Denied\n")
	bodyAuthRequired = []byte("Authorization Required\n")
	bodyNoScript     = []byte("no such script\n")
	bodyDocError     = []byte("document error\n")
	bodyNotFound     = []byte("not found\n")
	bodyAborted      = []byte("operation aborted: resource limit exceeded\n")
	bodyFailed       = []byte("operation failed\n")
)

// finish writes a terminal response and the access-log line.
func (s *Server) finish(w http.ResponseWriter, rec *RequestRec, code int, body []byte) {
	s.logCLF(rec, code, len(body))
	w.WriteHeader(code)
	if len(body) > 0 {
		_, _ = w.Write(body)
	}
}

// clfPool recycles access-log line buffers.
var clfPool = sync.Pool{New: func() any { return new([]byte) }}

// logCLF hands the access-log line and its newline to the writer in
// one Write, formatted into a pooled buffer.
func (s *Server) logCLF(rec *RequestRec, code, bytes int) {
	if s.cfg.AccessLog == nil {
		return
	}
	buf := clfPool.Get().(*[]byte)
	line := append(appendCLF((*buf)[:0], rec, code, bytes, &s.clfTime), '\n')
	// A failing access log must not fail the request it records.
	_, _ = s.cfg.AccessLog.Write(line)
	if cap(line) <= maxPooledBuf {
		*buf = line
	}
	clfPool.Put(buf)
}

// mountWriter records the status and body size a mounted handler answered.
type mountWriter struct {
	http.ResponseWriter
	code, bytes int
}

func (w *mountWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *mountWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}
