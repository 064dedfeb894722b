package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gaaapi/internal/audit"
	"gaaapi/internal/eacl"
	"gaaapi/internal/execctl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/httpd"
	"gaaapi/internal/notify"
	"gaaapi/internal/statestore"
)

// Span names: one per public seam the harness can wrap from outside.
type spanName uint8

const (
	spServe          spanName = iota // Server.ServeHTTP, the request's root
	spGuard                          // httpd.Guard: gaahttp.Guard.Check
	spBaseline                       // httpd.Guard: the htaccess baseline
	spSourceRevision                 // gaa.PolicySource.Revision
	spSourcePolicies                 // gaa.PolicySource.Policies
	spFiles                          // httpd.FileRoot.Open
	spAuth                           // httpd.Authenticator
	spAudit                          // audit.Logger.Log
	spNotify                         // notify.Notifier.Notify
	spFSWrite                        // statestore.File.Write
	spFSSync                         // statestore.File.Sync
	spFSMeta                         // statestore.FS open/create/rename/...
	spAccessLog                      // the access-log io.Writer
	spMonitor                        // Verdict.Monitor
	spPost                           // Verdict.Post
	spCount
)

var spanNames = [spCount]string{
	"httpd.serve", "gaahttp.guard_check", "httpd.baseline_check",
	"gaa.source_revision", "gaa.source_policies", "httpd.files_open",
	"httpd.authenticate", "audit.log", "notify.notify",
	"statestore.fs_write", "statestore.fs_sync", "statestore.fs_meta",
	"httpd.access_log_write", "gaahttp.monitor", "gaahttp.post",
}

// span is one recorded interval. IDs start at 1; parent 0 means none.
type span struct {
	ID     int32    `json:"id"`
	Parent int32    `json:"parent"`
	Req    int32    `json:"req"`
	Name   spanName `json:"-"`
	Label  string   `json:"name"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
}

type frame struct {
	name     spanName
	id       int32
	start    int64
	children int64 // time covered by child spans
}

// totals is what the tracer has accumulated so far. Self time is a
// span minus what its children cover.
type totals struct {
	reqs   int64
	selfNs [spCount]int64
	count  [spCount]int64
	// Requests whose verdict carried a Monitor take execctl's goroutine
	// + ticker path; the root's self time is kept apart for them
	// (index 1) and for the rest (index 0).
	rootSelf  [2]int64
	rootCount [2]int64
}

// since returns t − earlier, the totals of the requests in between.
func (t totals) since(earlier totals) totals {
	d := t
	d.reqs -= earlier.reqs
	for i := range d.selfNs {
		d.selfNs[i] -= earlier.selfNs[i]
		d.count[i] -= earlier.count[i]
	}
	for i := range d.rootSelf {
		d.rootSelf[i] -= earlier.rootSelf[i]
		d.rootCount[i] -= earlier.rootCount[i]
	}
	return d
}

// tracer records spans from the goroutine that owns it (the single
// traced worker). Self times are accumulated for every span of the
// run; the spans themselves are kept only for the first keepReqs
// requests, so the trace file stays readable and the recorder does not
// grow the heap it measures.
type tracer struct {
	totals
	epoch     time.Time
	owner     atomic.Uint64 // goroutine id of the traced worker; 0: the next request's
	stack     []frame
	nextID    int32
	keepReqs  int64
	spans     []span
	monitored bool // the current request's verdict carried a Monitor

	// Spans from other goroutines (the store's background flusher) are
	// not on any request's blocking path; they are counted apart.
	bgMu    sync.Mutex
	bgNs    [spCount]int64
	bgCount [spCount]int64
}

func newTracer(keepReqs int) *tracer {
	return &tracer{epoch: time.Now(), keepReqs: int64(keepReqs), stack: make([]frame, 0, 16)}
}

// reset drops everything recorded so far (the warm-up).
func (t *tracer) reset() {
	t.epoch = time.Now()
	t.totals = totals{}
	t.stack, t.spans, t.nextID = t.stack[:0], t.spans[:0], 0
	t.bgMu.Lock()
	t.bgNs, t.bgCount = [spCount]int64{}, [spCount]int64{}
	t.bgMu.Unlock()
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name spanName) {
	t.nextID++
	t.stack = append(t.stack, frame{name: name, id: t.nextID, start: t.now()})
}

func (t *tracer) end() {
	end := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := end - f.start
	t.selfNs[f.name] += dur - f.children
	t.count[f.name]++
	var parent int32
	if n := len(t.stack); n > 0 {
		t.stack[n-1].children += dur
		parent = t.stack[n-1].id
	} else {
		k := 0
		if t.monitored {
			k = 1
		}
		t.rootSelf[k] += dur - f.children
		t.rootCount[k]++
		t.monitored = false
	}
	if t.reqs <= t.keepReqs {
		t.spans = append(t.spans, span{ID: f.id, Parent: parent, Req: int32(t.reqs), Name: f.name, Start: f.start, End: end})
	}
}

// offGoroutine reports whether the caller is not the traced worker.
// It unwinds the caller's stack (tens of microseconds under a deep
// request), so only the one seam a background goroutine shares with the
// request path asks: the state store's fsync.
func (t *tracer) offGoroutine() bool { return goroutineID() != t.owner.Load() }

func (t *tracer) background(name spanName, d time.Duration) {
	t.bgMu.Lock()
	t.bgNs[name] += int64(d)
	t.bgCount[name]++
	t.bgMu.Unlock()
}

// goroutineID parses the id out of the first line of the stack trace
// ("goroutine 123 [running]:"); the runtime exports no cheaper way.
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	const prefix = len("goroutine ")
	if len(b) < prefix {
		return 0
	}
	b = b[prefix:]
	i := 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	id, _ := strconv.ParseUint(string(b[:i]), 10, 64)
	return id
}

// spanCost measures the tracer's own price per span on this machine:
// inner is what lands inside the span's own interval, outer what lands
// in its parent's. The reconciliation subtracts both from the seams'
// self times (Third Eye's rule: measure the tracer's perturbation and
// keep it out of the reported numbers).
func spanCost() (inner, outer float64) {
	const n = 200000
	t := newTracer(0)
	t.begin(spServe)
	for i := 0; i < n; i++ {
		t.begin(spGuard)
		t.end()
	}
	parent := t.now() - t.stack[0].start
	t.end()
	inner = float64(t.selfNs[spGuard]) / n
	return inner, float64(parent)/n - inner
}

// tracedClient opens the root span around the request.
type tracedClient struct {
	inner client
	tr    *tracer
}

func (c tracedClient) do(it *item) (int, int, error) {
	if c.tr.owner.Load() == 0 {
		c.tr.owner.Store(goroutineID())
	}
	c.tr.reqs++
	c.tr.begin(spServe)
	status, n, err := c.inner.do(it)
	c.tr.end()
	return status, n, err
}

func (c tracedClient) close() { c.inner.close() }

// The decorators below wrap the exported seams. Each is a no-op shell
// around the inner value plus one span.

type tracedGuard struct {
	inner httpd.Guard
	tr    *tracer
	name  spanName
}

func (g tracedGuard) Check(rec *httpd.RequestRec) httpd.Verdict {
	tr := g.tr
	tr.begin(g.name)
	v := g.inner.Check(rec)
	tr.end()
	if m := v.Monitor; m != nil {
		tr.monitored = true
		v.Monitor = func(s execctl.Snapshot) bool {
			tr.begin(spMonitor)
			ok := m(s)
			tr.end()
			return ok
		}
	}
	if p := v.Post; p != nil {
		v.Post = func(success bool) {
			tr.begin(spPost)
			p(success)
			tr.end()
		}
	}
	return v
}

type tracedSource struct {
	inner gaa.PolicySource
	tr    *tracer
}

func (s tracedSource) Policies(object string) ([]*eacl.EACL, error) {
	s.tr.begin(spSourcePolicies)
	es, err := s.inner.Policies(object)
	s.tr.end()
	return es, err
}

func (s tracedSource) Revision(object string) (string, error) {
	s.tr.begin(spSourceRevision)
	r, err := s.inner.Revision(object)
	s.tr.end()
	return r, err
}

type tracedFiles struct {
	inner httpd.FileRoot
	tr    *tracer
}

func (f tracedFiles) Open(p string) (string, bool, error) {
	f.tr.begin(spFiles)
	content, ok, err := f.inner.Open(p)
	f.tr.end()
	return content, ok, err
}

type tracedAuth struct {
	inner httpd.Authenticator
	tr    *tracer
}

func (a tracedAuth) Authenticate(user, pass string) bool {
	a.tr.begin(spAuth)
	ok := a.inner.Authenticate(user, pass)
	a.tr.end()
	return ok
}

type tracedAudit struct {
	inner audit.Logger
	tr    *tracer
}

func (a tracedAudit) Log(r audit.Record) error {
	a.tr.begin(spAudit)
	err := a.inner.Log(r)
	a.tr.end()
	return err
}

type tracedNotifier struct {
	inner notify.Notifier
	tr    *tracer
}

func (n tracedNotifier) Notify(ctx context.Context, m notify.Message) error {
	n.tr.begin(spNotify)
	err := n.inner.Notify(ctx, m)
	n.tr.end()
	return err
}

type tracedWriter struct {
	inner io.Writer
	tr    *tracer
}

func (w tracedWriter) Write(p []byte) (int, error) {
	w.tr.begin(spAccessLog)
	n, err := w.inner.Write(p)
	w.tr.end()
	return n, err
}

// tracedFS wraps the state store's filesystem. The store appends,
// compacts and rotates on the goroutine of the request that journals
// (no SnapshotInterval is configured); its background flusher only
// fsyncs. So fsync asks whose goroutine it is on — before the span
// opens, so the check is charged to the caller — and the other
// operations are taken to be the traced worker's.
type tracedFS struct {
	inner statestore.FS
	tr    *tracer
}

func (f tracedFS) span(name spanName, op func()) {
	if name == spFSSync && f.tr.offGoroutine() {
		t0 := time.Now()
		op()
		f.tr.background(name, time.Since(t0))
		return
	}
	f.tr.begin(name)
	op()
	f.tr.end()
}

func (f tracedFS) OpenAppend(name string) (file statestore.File, err error) {
	f.span(spFSMeta, func() { file, err = f.inner.OpenAppend(name) })
	if err != nil {
		return nil, err
	}
	return tracedFile{file, f}, nil
}

func (f tracedFS) Create(name string) (file statestore.File, err error) {
	f.span(spFSMeta, func() { file, err = f.inner.Create(name) })
	if err != nil {
		return nil, err
	}
	return tracedFile{file, f}, nil
}

func (f tracedFS) ReadFile(name string) (b []byte, err error) {
	f.span(spFSMeta, func() { b, err = f.inner.ReadFile(name) })
	return b, err
}

func (f tracedFS) Rename(o, n string) (err error) {
	f.span(spFSMeta, func() { err = f.inner.Rename(o, n) })
	return err
}

func (f tracedFS) Remove(name string) (err error) {
	f.span(spFSMeta, func() { err = f.inner.Remove(name) })
	return err
}

func (f tracedFS) Truncate(name string, size int64) (err error) {
	f.span(spFSMeta, func() { err = f.inner.Truncate(name, size) })
	return err
}

func (f tracedFS) MkdirAll(dir string) (err error) {
	f.span(spFSMeta, func() { err = f.inner.MkdirAll(dir) })
	return err
}

func (f tracedFS) SyncDir(dir string) (err error) {
	f.span(spFSSync, func() { err = f.inner.SyncDir(dir) })
	return err
}

type tracedFile struct {
	inner statestore.File
	fs    tracedFS
}

func (f tracedFile) Write(p []byte) (n int, err error) {
	f.fs.span(spFSWrite, func() { n, err = f.inner.Write(p) })
	return n, err
}

func (f tracedFile) Sync() (err error) {
	f.fs.span(spFSSync, func() { err = f.inner.Sync() })
	return err
}

func (f tracedFile) Close() (err error) {
	f.fs.span(spFSMeta, func() { err = f.inner.Close() })
	return err
}

// layerRow is one line of the trace's layer table.
type layerRow struct {
	Name         string  `json:"name"`
	Spans        int64   `json:"spans"`
	SelfNsPerReq float64 `json:"self_ns_per_req"`
	// Background is time the same seam spent on other goroutines (not
	// on a request's blocking path), per request.
	BackgroundNsPerReq float64 `json:"background_ns_per_req,omitempty"`
}

// layerTable reduces the run to one row per seam. Self time per
// request is the median over the run's slices, so a burst of outside
// noise in one slice does not move the figure.
func (t *tracer) layerTable(slices []totals) []layerRow {
	// The store's flusher may still be running.
	t.bgMu.Lock()
	bgNs, bgCount := t.bgNs, t.bgCount
	t.bgMu.Unlock()
	rows := make([]layerRow, 0, spCount)
	for i := spanName(0); i < spCount; i++ {
		var perReq []float64
		for _, s := range slices {
			perReq = append(perReq, float64(s.selfNs[i])/float64(max(s.reqs, 1)))
		}
		rows = append(rows, layerRow{
			Name:               spanNames[i],
			Spans:              t.count[i] + bgCount[i],
			SelfNsPerReq:       median(perReq),
			BackgroundNsPerReq: float64(bgNs[i]) / float64(max(t.reqs, 1)),
		})
	}
	return rows
}

// traceFile is what benchmark/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Requests int64  `json:"requests"`
	// SpansKeptForRequests: spans are listed for requests 1..N only;
	// the layer table covers every request.
	SpansKeptForRequests int64      `json:"spans_kept_for_requests"`
	Reconcile            *reconcile `json:"reconcile"`
	Layers               []layerRow `json:"layers"`
	Spans                []span     `json:"spans"`
}

func (t *tracer) writeFile(path string, w workload, seed int64, rc *reconcile, layers []layerRow) error {
	for i := range t.spans {
		t.spans[i].Label = spanNames[t.spans[i].Name]
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(traceFile{
		Workload: w.name, Seed: seed, Requests: t.reqs,
		SpansKeptForRequests: min(t.keepReqs, t.reqs),
		Reconcile:            rc, Layers: layers, Spans: t.spans,
	})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
