// Command gaa-httpd runs the GAA-protected web server: the Apache
// analog with the GAA-API guard in front of its native .htaccess
// access control, the demo CGI scripts, and the IDS feedback loop
// (signature reports escalate the threat level, which the policies
// read back).
//
// Usage:
//
//	gaa-httpd -listen :8080 \
//	    -system system.eacl -local-dir ./site -docroot ./site \
//	    -htpasswd users.htpasswd -groups groups.txt
//
// Without -system/-local-dir it serves a built-in demonstration
// deployment: the paper's section 7.1 lockdown policy plus the section
// 7.2 CGI protections over a small document tree. Admin endpoints:
//
//	GET  /gaa/status  — threat level, blacklist, block set, audit tail,
//	                    state-store and reload statistics
//	POST /gaa/reload  — re-read and analyze the -system/-local-dir
//	                    policy files; swap them in atomically only when
//	                    clean at severity < error
//	GET  /gaa/metrics — Prometheus text exposition: phase latency,
//	                    decisions, cache, supervision, notifier, state
//	                    store, threat level (disable with -metrics=false)
//	GET  /gaa/healthz — readiness report: state recovery, policy
//	                    generation, replication convergence (503 only
//	                    while replication is catching up)
//
// With -pprof the Go runtime profiles are served under /debug/pprof/.
// SIGHUP triggers the same validated reload. With -state-dir the
// adaptive state (blocks with their expiries, threat level, lockout
// counters, blacklist groups) is journaled and survives kill -9.
//
// With -node-id and -peers the server joins a replication fleet:
// every adaptive-state mutation is pushed to each peer's
// POST /gaa/replicate endpoint, so a block earned on one node is
// enforced by all of them (DESIGN.md "Cluster replication").
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gaaapi/internal/faults"
	"gaaapi/internal/gaahttp"
	"gaaapi/internal/ids"
	"gaaapi/internal/ids/adaptive"
	"gaaapi/internal/statestore"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gaa-httpd:", err)
		os.Exit(1)
	}
}

const demoSystemPolicy = `
eacl_mode narrow
neg_access_right * *
pre_cond_system_threat_level local =high
neg_access_right * *
pre_cond_accessid_GROUP local BadGuys
`

const demoLocalPolicy = `
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *///////////////////* *%c0%af* *%255c* *cmd.exe* *root.exe*
rr_cond_notify local on:failure/sysadmin/info:cgiexploit
rr_cond_update_log local on:failure/BadGuys/info:IP
rr_cond_set_threat_level local on:failure/medium
neg_access_right apache *
pre_cond_expr local input_length>@max_input
rr_cond_update_log local on:failure/BadGuys/info:IP
pos_access_right apache *
mid_cond_quota local cpu_ms<=250
`

// options are the parsed command line: the deployment NewStack builds
// and what the binary itself acts on.
type options struct {
	stack      gaahttp.StackConfig
	listen     string
	groupsFile string
	// faultStatus, set during a fault drill, writes the injectors'
	// counters; run appends them to the /gaa/status report.
	faultStatus func(io.Writer)
}

// parseOptions turns the flags into a StackConfig: the built-in
// demonstration site, with every file-backed input a flag names in its
// place.
func parseOptions(args []string) (options, error) {
	o := options{stack: gaahttp.StackConfig{
		SystemPolicy:     demoSystemPolicy,
		LocalPolicies:    map[string]string{"*": demoLocalPolicy},
		DocRoot:          demoDocRoot(),
		AccessLog:        os.Stdout,
		SensitiveObjects: []string{"/cgi-bin/*", "/private/*"},
		PolicyCache:      true,
		AsyncNotify:      true,
		ReliableNotify:   true,
		// Runtime constraint values (paper section 2 adaptive
		// constraints): the tuner tightens the CGI input bound as the
		// threat level rises.
		RuntimeValues: map[string]string{"max_input": "1000"},
		LevelValues: map[ids.Level]map[string]string{
			ids.Low:    {"max_input": "1000"},
			ids.Medium: {"max_input": "300"},
			ids.High:   {"max_input": "100"},
		},
	}}
	cfg := &o.stack
	var (
		peers                             string
		adaptiveOn                        bool
		faultSeed                         int64
		faultEval, faultNotify, faultDisk string
	)
	fs := flag.NewFlagSet("gaa-httpd", flag.ContinueOnError)
	fs.StringVar(&o.listen, "listen", ":8080", "listen address")
	fs.StringVar(&cfg.SystemPolicyFile, "system", "", "system-wide EACL policy file (empty: demo policy)")
	fs.StringVar(&cfg.LocalPolicyDir, "local-dir", "", "directory tree searched for .eacl local policies")
	fs.StringVar(&cfg.HtpasswdFile, "htpasswd", "", "htpasswd credential file")
	fs.StringVar(&o.groupsFile, "groups", "", "persistent group (blacklist) file")
	fs.StringVar(&cfg.AccessLogFile, "access-log", "", "common-log-format access log path (empty: stdout)")
	fs.StringVar(&cfg.DocRootDir, "docroot", "", "serve static documents from this directory (empty: built-in demo pages)")
	fs.DurationVar(&cfg.EvaluatorTimeout, "evaluator-timeout", 0, "per-evaluator deadline; a hung or slow condition evaluator degrades to MAYBE (0: off)")
	fs.Int64Var(&faultSeed, "fault-seed", 1, "seed for the deterministic fault injectors")
	fs.StringVar(&faultEval, "fault-evaluators", "", `evaluator fault injection spec, e.g. "hang=0.01,panic=0.02,error=0.05,latency=0.1:20ms"`)
	fs.StringVar(&faultNotify, "fault-notifier", "", `notifier fault injection spec, same syntax as -fault-evaluators`)
	fs.StringVar(&faultDisk, "fault-disk", "", `state-store disk fault injection spec, e.g. "disk=0.05" (short writes + fsync errors)`)
	fs.StringVar(&cfg.StateDir, "state-dir", "", "journal adaptive state (blocks, threat level, lockouts, blacklists) under this directory so it survives crashes")
	fs.StringVar(&cfg.Fsync, "fsync", "interval", "state WAL fsync policy: always|interval|never")
	fs.DurationVar(&cfg.SnapshotInterval, "snapshot-interval", 30*time.Second, "compact the state WAL into a snapshot this often (0: count-driven only)")
	fs.StringVar(&cfg.NodeID, "node-id", "", "unique cluster node name; enables replication when -peers is set")
	fs.StringVar(&peers, "peers", "", "comma-separated peer base URLs (e.g. http://host2:8080,http://host3:8080) to replicate adaptive state to")
	fs.DurationVar(&cfg.ReplicationInterval, "replication-interval", 0, "idle replication push interval (0: built-in default)")
	fs.BoolVar(&adaptiveOn, "adaptive", false, "enable self-adaptive per-source threat scoring (learned profiles drive the threat level and per-source blocks)")
	fs.BoolVar(&cfg.Metrics, "metrics", true, "serve Prometheus text metrics at /gaa/metrics")
	fs.BoolVar(&cfg.Pprof, "pprof", false, "serve runtime profiles under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}

	if cfg.HtpasswdFile == "" {
		cfg.Users = map[string]string{"admin": "admin"}
	}
	if adaptiveOn {
		acfg := adaptive.Defaults()
		cfg.Adaptive = &acfg
	}
	if peers != "" && cfg.NodeID == "" {
		return options{}, fmt.Errorf("-peers requires -node-id (a unique name per fleet member)")
	}
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			cfg.Peers = append(cfg.Peers, p)
		}
	}

	// Fault drill wiring: seeded injectors wrap every registered
	// evaluator, the notifier transport and the state store's files;
	// the evaluator supervision, the retry/breaker layer and WAL
	// recovery absorb what they inject.
	evalSpec, err := faults.ParseSpec(faultEval)
	if err != nil {
		return options{}, fmt.Errorf("-fault-evaluators: %w", err)
	}
	notifySpec, err := faults.ParseSpec(faultNotify)
	if err != nil {
		return options{}, fmt.Errorf("-fault-notifier: %w", err)
	}
	diskSpec, err := faults.ParseSpec(faultDisk)
	if err != nil {
		return options{}, fmt.Errorf("-fault-disk: %w", err)
	}
	evalInj := faults.New(faultSeed, evalSpec)
	notifyInj := faults.New(faultSeed+1, notifySpec)
	diskInj := faults.New(faultSeed+2, diskSpec)
	if evalSpec.Active() {
		cfg.EvaluatorWrapper = evalInj.Evaluator
	}
	if notifySpec.Active() {
		cfg.NotifierWrapper = notifyInj.Notifier
	}
	if diskSpec.Active() {
		cfg.StoreFS = diskInj.FS(statestore.OS)
	}
	if !evalSpec.Active() && !notifySpec.Active() && !diskSpec.Active() {
		return o, nil
	}
	o.faultStatus = func(w io.Writer) {
		if evalSpec.Active() || notifySpec.Active() {
			es, ns := evalInj.Stats(), notifyInj.Stats()
			fmt.Fprintf(w, "fault drill: evaluators[%s] hangs=%d panics=%d errors=%d latencies=%d; notifier[%s] hangs=%d panics=%d errors=%d latencies=%d\n",
				evalSpec, es.Hangs, es.Panics, es.Errors, es.Latencies,
				notifySpec, ns.Hangs, ns.Panics, ns.Errors, ns.Latencies)
		}
		if diskSpec.Active() {
			ds := diskInj.Stats()
			fmt.Fprintf(w, "fault drill: disk[%s] short-writes=%d sync-errors=%d\n",
				diskSpec, ds.ShortWrites, ds.SyncErrors)
		}
	}
	return o, nil
}

// build wires the deployment the flags describe and loads the
// persistent blacklist into it (after the state store attached, so the
// journal sees the loaded members).
func build(o options) (*gaahttp.Stack, error) {
	st, err := gaahttp.NewStack(o.stack)
	if err != nil {
		return nil, err
	}
	if o.groupsFile != "" {
		if err := st.Groups.LoadFile(o.groupsFile); err != nil {
			st.Close()
			return nil, fmt.Errorf("load groups: %w", err)
		}
	}
	return st, nil
}

func run(args []string) (err error) {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	st, err := build(o)
	if err != nil {
		return err
	}
	defer st.Close()
	if o.groupsFile != "" {
		// On every way out, not only after a clean signal.
		defer func() {
			if serr := st.Groups.SaveFile(o.groupsFile); serr != nil && err == nil {
				err = fmt.Errorf("save groups: %w", serr)
			}
		}()
	}

	handler := st.Handler()
	if o.faultStatus != nil {
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			st.Handler().ServeHTTP(w, r)
			if r.URL.Path == "/gaa/status" {
				o.faultStatus(w)
			}
		})
	}
	httpSrv := &http.Server{Addr: o.listen, Handler: handler, ReadHeaderTimeout: 10 * time.Second}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("gaa-httpd listening on %s (threat level %s)\n", o.listen, st.Threat.Level())
	if st.Cluster != nil {
		cs := st.Cluster.Stats()
		fmt.Printf("gaa-httpd cluster node %q (epoch %d) replicating to %d peer(s)\n",
			cs.NodeID, cs.Epoch, len(cs.Peers))
	}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
loop:
	for {
		select {
		case err := <-errCh:
			return err
		case sig := <-sigCh:
			if sig != syscall.SIGHUP {
				break loop
			}
			// SIGHUP: validated hot reload. A rejected candidate leaves
			// the running policy untouched.
			res := st.Reloader.Reload()
			if res.OK {
				fmt.Printf("gaa-httpd: policy reload applied (generation %d, %d diagnostics)\n",
					res.Generation, len(res.Diagnostics))
			} else {
				fmt.Fprintf(os.Stderr, "gaa-httpd: policy reload rejected: %s\n", res.Err)
				for _, d := range res.Diagnostics {
					fmt.Fprintf(os.Stderr, "gaa-httpd:   %s\n", d)
				}
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return httpSrv.Shutdown(ctx)
}

func demoDocRoot() map[string]string {
	return map[string]string{
		"/index.html":        "<html><body><h1>GAA-protected server</h1></body></html>",
		"/docs/guide.html":   "<html><body>guide</body></html>",
		"/news/2003-05.html": "<html><body>news</body></html>",
	}
}
