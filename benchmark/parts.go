package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gaaapi/internal/actions"
	"gaaapi/internal/audit"
	"gaaapi/internal/conditions"
	"gaaapi/internal/gaa"
	"gaaapi/internal/gaahttp"
	"gaaapi/internal/groups"
	"gaaapi/internal/httpd"
	"gaaapi/internal/ids"
	"gaaapi/internal/metrics"
	"gaaapi/internal/netblock"
	"gaaapi/internal/notify"
	"gaaapi/internal/statestore"
)

// parts is a deployment assembled by the harness from the exported
// constructors (gaa.New, conditions.Register, actions.Register,
// gaahttp.New, httpd.NewServer) in the order and with the settings
// gaahttp.NewStack uses, so that a tracer can be slipped into every
// public seam. With site set it is the file-backed shape gaa-httpd
// serves: DirSource local policies, OSRoot documents, an access log on
// a real file and a state directory.
//
// The traced run checks that this rebuild answers every request of the
// stream with the status the composition root's deployment gave; a
// drift between the two fails the run.
type parts struct {
	api     *gaa.API
	server  *httpd.Server
	blocks  *netblock.Set
	store   *statestore.Store
	metrics *metrics.Registry
	logFile *os.File
	tmp     string
}

// buildParts assembles w's deployment; tr may be nil (no decorators).
func buildParts(w workload, scratch string, fileBacked bool, tr *tracer) (*parts, error) {
	p := &parts{}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()
	if w.stateDir || fileBacked {
		tmp, err := os.MkdirTemp(scratch, w.name+"-parts-")
		if err != nil {
			return nil, err
		}
		p.tmp = tmp
	}
	cfg := w.stackConfig("", io.Discard)

	threat := ids.NewManager(ids.Low)
	bus := ids.NewBus()
	sigs := ids.NewDB(ids.DefaultSignatures()...)
	anomaly := ids.NewDetector(ids.DefaultAnomalyConfig())
	grp := groups.NewStore()
	counters := conditions.NewCounters(nil)
	p.blocks = netblock.NewSet()
	mailbox := notify.NewMailbox(0)
	var ring audit.Logger = audit.NewRing(1024)
	network := ids.NewStaticSpoofList(0.9)
	values := gaa.NewValues()

	var persist *statestore.Adaptive
	if w.stateDir || fileBacked {
		fsync, err := statestore.ParseFsyncPolicy("interval")
		if err != nil {
			return nil, err
		}
		var fs statestore.FS = statestore.OS
		if tr != nil {
			fs = tracedFS{inner: fs, tr: tr}
		}
		p.store, err = statestore.Open(filepath.Join(p.tmp, "state"), statestore.Options{Fsync: fsync, FS: fs})
		if err != nil {
			return nil, err
		}
		persist, err = statestore.Attach(p.store, statestore.Components{
			Blocks: p.blocks, Threat: threat, Counters: counters, Groups: grp,
		})
		if err != nil {
			return nil, err
		}
	}

	p.metrics = metrics.NewRegistry()
	opts := []gaa.Option{
		gaa.WithValues(values),
		gaa.WithMetrics(p.metrics), gaa.WithMetricsSampling(gaa.DefaultMetricsSampleShift),
		gaa.WithPolicyCache(1024),
	}
	if w.timeout > 0 {
		opts = append(opts, gaa.WithEvaluatorTimeout(w.timeout))
	}
	p.api = gaa.New(opts...)
	conditions.Register(p.api, conditions.Deps{Threat: threat, Groups: grp, Counters: counters, Signatures: sigs})

	var notifier notify.Notifier = mailbox
	if tr != nil {
		notifier = tracedNotifier{notifier, tr}
		ring = tracedAudit{ring, tr}
	}
	actions.Register(p.api, actions.Deps{
		Notifier: notifier, Groups: grp, Audit: ring, Threat: threat,
		Blocks: p.blocks, Counters: counters, Spoof: network,
	})

	// Policy sources and documents: in memory as NewStack holds them,
	// or on disk as gaa-httpd reads them.
	system, local := gaa.NewMemorySource(), gaa.NewMemorySource()
	if err := system.AddPolicy("*", cfg.SystemPolicy); err != nil {
		return nil, fmt.Errorf("system policy: %w", err)
	}
	var localSrc gaa.PolicySource = local
	var files httpd.FileRoot = httpd.MapRoot(cfg.DocRoot)
	var accessLog io.Writer = io.Discard
	if fileBacked {
		_, site, err := writeSite(p.tmp)
		if err != nil {
			return nil, err
		}
		localSrc = gaa.NewDirSource(site, ".eacl")
		files = httpd.NewOSRoot(site)
		p.logFile, err = os.OpenFile(filepath.Join(p.tmp, "access.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		accessLog = p.logFile
	} else {
		for pattern, src := range cfg.LocalPolicies {
			if err := local.AddPolicy(pattern, src); err != nil {
				return nil, fmt.Errorf("local policy %q: %w", pattern, err)
			}
		}
	}
	systemSwap, localSwap := gaa.NewSwappableSource(system), gaa.NewSwappableSource(localSrc)
	reloader := gaahttp.NewReloader(gaahttp.ReloadConfig{System: systemSwap, Local: localSwap, Known: p.api.Known})

	var sysSrc, locSrc gaa.PolicySource = systemSwap, localSwap
	var auth httpd.Authenticator = httpd.NewHtpasswd()
	if tr != nil {
		sysSrc, locSrc = tracedSource{sysSrc, tr}, tracedSource{locSrc, tr}
		files = tracedFiles{files, tr}
		accessLog = tracedWriter{accessLog, tr}
		auth = tracedAuth{auth, tr}
	}
	var guard httpd.Guard = gaahttp.New(gaahttp.Config{
		API:    p.api,
		System: []gaa.PolicySource{sysSrc}, Local: []gaa.PolicySource{locSrc},
		Bus: bus, Signatures: sigs, Network: network, Anomaly: anomaly,
		Audit: ring, Health: reloader,
	})
	var baseline httpd.Guard = httpd.NewBaselineGuard(httpd.NewMapHtaccessSource(), nil)
	if tr != nil {
		guard = tracedGuard{guard, tr, spGuard}
		baseline = tracedGuard{baseline, tr, spBaseline}
	}
	p.server = httpd.NewServer(httpd.Config{
		Files:     files,
		Scripts:   httpd.NewDemoRegistry(),
		Guards:    []httpd.Guard{guard, baseline},
		Auth:      auth,
		Blocks:    p.blocks,
		AccessLog: accessLog,
	})
	gaahttp.RegisterComponentMetrics(p.metrics, gaahttp.Components{
		Threat: threat, Bus: bus, Blocks: p.blocks, Store: p.store, Persist: persist, Reloader: reloader,
	})
	ok = true
	return p, nil
}

func (p *parts) close() {
	if p.store != nil {
		p.store.Close()
	}
	if p.logFile != nil {
		p.logFile.Close()
	}
	if p.tmp != "" {
		os.RemoveAll(p.tmp)
	}
}
