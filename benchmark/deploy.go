package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"gaaapi/internal/gaahttp"
)

// The paper's section 7 policies, as one deployment. The system policy
// is mandatory (narrow): nobody gets in at threat level high, and
// members of BadGuys are denied. The local policy denies the section
// 7.2 signatures and the 1000-character overflow, answers both with
// the paper's response actions (notify, blacklist, firewall block,
// audit), grants CGI under an execution quota with a post-execution
// audit of failed scripts, and grants the rest.
const systemPolicy = `eacl_mode narrow
neg_access_right * *
pre_cond_system_threat_level local =high
neg_access_right * *
pre_cond_accessid_GROUP local BadGuys
`

const localPolicy = `neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *///////////////////* *%c0%af* *%255c* *cmd.exe* *root.exe*
rr_cond_notify local on:failure/sysadmin/info:cgiexploit
rr_cond_update_log local on:failure/BadGuys/info:IP
rr_cond_block_ip local on:failure
rr_cond_audit local on:failure/info:cgiexploit
neg_access_right apache *
pre_cond_expr local input_length>1000
rr_cond_notify local on:failure/sysadmin/info:overflow
rr_cond_update_log local on:failure/BadGuys/info:IP
rr_cond_block_ip local on:failure
rr_cond_audit local on:failure/info:overflow
pos_access_right apache GET /cgi-bin/*
mid_cond_quota local cpu_ms<=250
post_cond_audit local on:failure/info:cgi-failed
pos_access_right apache *
`

// sprawlSystemPolicy is the section 7.2 signature list grown to a
// 200-entry IDS database: one deny entry per known-exploit URL prefix,
// live at raised threat levels, ahead of the BadGuys deny. A
// legitimate request matches none of the rights, which is what the
// compiled engine's trie prunes and the interpreter scans.
func sprawlSystemPolicy() string {
	var b strings.Builder
	b.WriteString("eacl_mode narrow\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "neg_access_right apache GET /cgi-bin/sig%d*\npre_cond_system_threat_level local >low\n", i)
	}
	b.WriteString("neg_access_right * *\npre_cond_accessid_GROUP local BadGuys\n")
	return b.String()
}

// sprawlLocalPolicies gives every directory its own policy: the shared
// signature and overflow denies, a directory-specific deny, and the
// grant. 64 distinct EACLs compose with the system policy into 64
// decision programs.
func sprawlLocalPolicies() map[string]string {
	out := make(map[string]string, sprawlDirs)
	for d := 0; d < sprawlDirs; d++ {
		out[fmt.Sprintf("/d%02d/*", d)] = fmt.Sprintf(`neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *///////////////////* *%%c0%%af* *%%255c* *cmd.exe* *root.exe*
rr_cond_update_log local on:failure/BadGuys/info:IP
neg_access_right apache *
pre_cond_expr local input_length>1000
neg_access_right apache GET /d%02d/private*
pre_cond_system_threat_level local >low
pos_access_right apache *
`, d)
	}
	return out
}

func sprawlDocRoot() map[string]string {
	out := make(map[string]string, sprawlDirs*sprawlDocs)
	for d := 0; d < sprawlDirs; d++ {
		for i := 0; i < sprawlDocs; i++ {
			out[sprawlPath(d, i)] = sprawlBody(d, i)
		}
	}
	return out
}

// workload is one named deployment + stream pairing.
type workload struct {
	name   string
	stream string
	// perSecond is the fixed request budget per second of --seconds,
	// sized so the timed part, its floor slices included, lasts about
	// three quarters of --seconds on the seed commit on one CPU of the
	// box this was written on, and --seconds when that box is in its
	// slow state. The count, not the clock, ends a run: both commits of
	// a comparison then leave the same state behind.
	perSecond int
	warmup    int
	// traced is the length of the traced run and of the untraced run
	// beside it.
	traced int
	// reconciles: the issue holds this workload's layer table to the
	// 10 % rule; the others report their gap.
	reconciles bool
	tcp        bool
	stateDir   bool
	timeout    time.Duration
}

var workloads = []workload{
	{name: "browse", stream: streamBrowse, perSecond: 120000, warmup: 50000, traced: 200000, reconciles: true},
	{name: "siege", stream: streamSiege, perSecond: 100000, warmup: 50000, traced: 200000, reconciles: true, stateDir: true},
	{name: "sprawl", stream: streamSprawl, perSecond: 60000, warmup: 50000, traced: 200000, reconciles: true},
	{name: "sprawl-timeout", stream: streamSprawl, perSecond: 24000, warmup: 50000, traced: 60000, timeout: 25 * time.Millisecond},
	{name: "browse-tcp", stream: streamBrowse, perSecond: 6500, warmup: 5000, traced: 100000, tcp: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stackConfig is the in-process deployment of w: what gaa-httpd turns
// on by default (CLF line, metrics, policy cache) around w's policies.
// Adaptive stays off; benchmark/README.md says why.
func (w workload) stackConfig(stateDir string, accessLog io.Writer) gaahttp.StackConfig {
	cfg := gaahttp.StackConfig{
		SystemPolicy:     systemPolicy,
		LocalPolicies:    map[string]string{"*": localPolicy},
		DocRoot:          legitDocs,
		PolicyCache:      true,
		Metrics:          true,
		AccessLog:        accessLog,
		EvaluatorTimeout: w.timeout,
	}
	if w.stream == streamSprawl {
		cfg.SystemPolicy = sprawlSystemPolicy()
		cfg.LocalPolicies = sprawlLocalPolicies()
		cfg.DocRoot = sprawlDocRoot()
	}
	if w.stateDir {
		cfg.StateDir = stateDir
		cfg.Fsync = "interval"
	}
	return cfg
}

// A deployment is one built system under test. Everything the harness
// learns about it goes through here, so the in-process and the
// out-of-process deployments report the same metrics.
type deployment interface {
	// client returns worker's way to send requests.
	client(worker int) client
	// cpuSeconds and mallocs are what the server's process has consumed
	// so far.
	cpuSeconds() (float64, error)
	mallocs() (uint64, error)
	// aside runs fn, work of the harness that is not the deployment's
	// (the floor), and keeps what fn consumes out of both counters.
	aside(fn func())
	// heapLive forces a collection in the server and returns HeapAlloc.
	heapLive() (bytes uint64, err error)
	close()
}

// client sends one request and reports status and body length.
type client interface {
	do(it *item) (status, bodyLen int, err error)
	close()
}

// inproc is a gaahttp.NewStack deployment driven through ServeHTTP.
type inproc struct {
	stack *gaahttp.Stack
	tmp   string
	// What aside's functions consumed in this process.
	asideCPU     float64
	asideMallocs uint64
}

func (w workload) deployInproc(scratch string) (*inproc, error) {
	d := &inproc{}
	if w.stateDir {
		tmp, err := os.MkdirTemp(scratch, w.name+"-state-")
		if err != nil {
			return nil, err
		}
		d.tmp = tmp
	}
	st, err := gaahttp.NewStack(w.stackConfig(d.tmp, io.Discard))
	if err != nil {
		d.close()
		return nil, fmt.Errorf("%s: NewStack: %w", w.name, err)
	}
	d.stack = st
	return d, nil
}

func (d *inproc) client(int) client { return newInprocClient(d.stack.Server) }

func (d *inproc) cpuSeconds() (float64, error) { return selfCPUSeconds() - d.asideCPU, nil }

func (d *inproc) mallocs() (uint64, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - d.asideMallocs, nil
}

func (d *inproc) aside(fn func()) {
	cpu0, _ := d.cpuSeconds()
	mallocs0, _ := d.mallocs()
	fn()
	cpu1, _ := d.cpuSeconds()
	mallocs1, _ := d.mallocs()
	d.asideCPU += cpu1 - cpu0
	d.asideMallocs += mallocs1 - mallocs0
}

func (d *inproc) heapLive() (uint64, error) {
	// Two collections: the first moves sync.Pool contents to the
	// victim cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, nil
}

func (d *inproc) close() {
	if d.stack != nil {
		d.stack.Close()
	}
	if d.tmp != "" {
		os.RemoveAll(d.tmp)
	}
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// inprocClient reuses one request and one response sink per worker.
type inprocClient struct {
	h   http.Handler
	req *http.Request
	rw  nullResponse
}

func newInprocClient(h http.Handler) *inprocClient {
	req, err := http.NewRequest("GET", "http://bench.invalid/", nil)
	if err != nil {
		panic(err)
	}
	// What a browser sends: the record's header count is 3, not 0.
	req.Header.Set("User-Agent", "gaa-benchmark/1")
	req.Header.Set("Accept", "*/*")
	req.Header.Set("Connection", "keep-alive")
	return &inprocClient{h: h, req: req, rw: nullResponse{header: make(http.Header, 4)}}
}

func (c *inprocClient) do(it *item) (int, int, error) {
	r := c.req
	r.URL.Path, r.URL.RawQuery, r.RequestURI = it.tgt.path, it.tgt.query, it.tgt.uri
	r.RemoteAddr = it.remote
	c.rw.reset()
	c.h.ServeHTTP(&c.rw, r)
	return c.rw.code, c.rw.bytes, nil
}

func (c *inprocClient) close() {}

// nullResponse discards bodies and remembers status and length.
type nullResponse struct {
	header http.Header
	code   int
	bytes  int
}

func (w *nullResponse) Header() http.Header { return w.header }

func (w *nullResponse) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *nullResponse) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.bytes += len(p)
	return len(p), nil
}

func (w *nullResponse) reset() {
	w.code, w.bytes = 0, 0
	clear(w.header)
}

// writeSite lays out the file-backed deployment of gaa-httpd under
// dir: system.eacl, and site/ holding the documents and the local
// policy as site/.eacl (DirSource semantics).
func writeSite(dir string) (systemFile, site string, err error) {
	site = filepath.Join(dir, "site")
	files := map[string]string{
		filepath.Join(dir, "system.eacl"): systemPolicy,
		filepath.Join(site, ".eacl"):      localPolicy,
	}
	for p, body := range legitDocs {
		files[filepath.Join(site, filepath.FromSlash(p))] = body
	}
	for name, content := range files {
		if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
			return "", "", err
		}
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			return "", "", err
		}
	}
	return filepath.Join(dir, "system.eacl"), site, nil
}
