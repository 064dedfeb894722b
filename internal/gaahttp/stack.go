package gaahttp

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"gaaapi/internal/actions"
	"gaaapi/internal/audit"
	"gaaapi/internal/cluster"
	"gaaapi/internal/conditions"
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
	"gaaapi/internal/httpd"
	"gaaapi/internal/ids"
	"gaaapi/internal/ids/adaptive"
	"gaaapi/internal/metrics"
	"gaaapi/internal/netblock"
	"gaaapi/internal/notify"
	"gaaapi/internal/statestore"
)

// StackConfig describes a complete protected-web-server deployment.
type StackConfig struct {
	// SystemPolicy is the system-wide EACL source text ("" for none).
	SystemPolicy string
	// LocalPolicies maps object glob patterns to local EACL sources.
	LocalPolicies map[string]string
	// SystemPolicyFile, when non-empty, is read in place of
	// SystemPolicy, at start and on every reload.
	SystemPolicyFile string
	// LocalPolicyDir, when non-empty, is a directory tree whose
	// per-directory .eacl files replace LocalPolicies and whose
	// .htaccess files replace Htaccess. The .eacl files are read at
	// start and on every reload, the .htaccess files on every request.
	LocalPolicyDir string

	// DocRoot maps objects ("/index.html") to static content.
	DocRoot map[string]string
	// DocRootDir, when non-empty, serves static documents from this
	// directory instead of DocRoot.
	DocRootDir string
	// Htaccess maps directories to native .htaccess sources (the
	// baseline Apache access control GAA declines to).
	Htaccess map[string]string
	// Users are Basic-auth credentials (user -> password).
	Users map[string]string
	// HtpasswdFile, when non-empty, is an htpasswd credential file
	// loaded before Users.
	HtpasswdFile string

	// NotifyLatency is the synthetic mail-delivery latency (paper
	// section 8 measures with and without notification).
	NotifyLatency time.Duration
	// AsyncNotify delivers notifications on a background worker
	// instead of blocking policy evaluation (an ablation knob).
	AsyncNotify bool
	// PolicyCache enables the composed-policy cache (experiment E4),
	// holding 4096 objects.
	PolicyCache bool
	// SensitiveObjects are glob patterns reported on denial.
	SensitiveObjects []string
	// SpoofedSources are '*'-glob address patterns the simulated
	// network IDS reports as spoofed; source-keyed countermeasures
	// skip them.
	SpoofedSources []string
	// RuntimeValues seeds the '@name' runtime value store (the paper's
	// adaptive constraint specification, section 2); the IDS or an
	// administrator may update Stack.Values afterwards.
	RuntimeValues map[string]string
	// LevelValues, when non-nil, runs the host-IDS loop (paper sections
	// 3 and 7.1): a Correlator listening on the bus escalates the
	// threat level on correlated reports, except those from
	// spoof-suspected sources, and a ValueTuner sets each level's
	// runtime values whenever that level becomes current.
	LevelValues map[ids.Level]map[string]string
	// AccessLog, when non-nil, receives common-log-format lines.
	AccessLog io.Writer
	// AccessLogFile, when non-empty, is appended to instead.
	AccessLogFile string
	// Clock overrides time.Now for deterministic runs.
	Clock func() time.Time

	// EvaluatorTimeout bounds every condition-evaluator call; a hung
	// evaluator degrades to MAYBE at the deadline (0: off).
	EvaluatorTimeout time.Duration
	// EvaluatorWrapper, when non-nil, wraps every registered evaluator
	// beneath the supervision layer — the fault-injection seam
	// (internal/faults).
	EvaluatorWrapper func(gaa.Evaluator) gaa.Evaluator
	// NotifierWrapper, when non-nil, wraps the notification transport
	// (between the mailbox and the retry/breaker layer).
	NotifierWrapper func(notify.Notifier) notify.Notifier
	// ReliableNotify wraps the transport in notify.NewReliable
	// (bounded retry + circuit breaker on the stack's clock); the
	// handle is Stack.Reliable.
	ReliableNotify bool

	// StateDir, when non-empty, makes the adaptive state (blocks,
	// threat level, lockout counters, blacklist groups) crash-safe:
	// mutations are journaled to a WAL under the directory and a
	// restart restores them (internal/statestore).
	StateDir string
	// Fsync is the WAL flush policy: "always", "interval" (default) or
	// "never".
	Fsync string
	// SnapshotInterval also compacts the WAL into a snapshot on a
	// timer (0: count-driven only).
	SnapshotInterval time.Duration
	// StoreFS overrides the store's filesystem (disk-fault drills).
	StoreFS statestore.FS

	// Metrics turns on the observability layer: a metrics.Registry on
	// Stack.Metrics carrying the GAA phase instruments
	// (gaa.WithMetrics) plus every component's collect-time metrics
	// (RegisterComponentMetrics). Handler serves it at /gaa/metrics.
	Metrics bool
	// Pprof makes Handler serve the runtime profiles under
	// /debug/pprof/.
	Pprof bool

	// Adaptive, when non-nil, enables the self-adaptive threat-scoring
	// engine: the guard feeds it every authorization decision, it
	// raises the threat level and renews its hold,
	// blocks hot sources, and its score/profile records persist and
	// replicate with the rest of the adaptive state.
	Adaptive *adaptive.Config

	// NodeID enables cluster mode: the node replicates its adaptive
	// state to Peers and accepts pushes at the replicate endpoint
	// (Stack.Cluster.Handler). Works with or without StateDir.
	NodeID string
	// Peers are the base URLs of the other fleet members.
	Peers []string
	// ClusterTransport overrides peer delivery (in-process tests).
	ClusterTransport cluster.Transport
	// ReplicationInterval overrides the idle tick of Cluster.Start's
	// pushers (default 100ms).
	ReplicationInterval time.Duration
}

// Stack is a fully wired deployment: the GAA-API with all built-in
// conditions and actions, the IDS substrate, the Apache-analog server
// with the GAA guard in front of the htaccess baseline, and handles to
// every component for inspection.
type Stack struct {
	API      *gaa.API
	Guard    *Guard
	Server   *httpd.Server
	Threat   *ids.Manager
	Bus      *ids.Bus
	Sigs     *ids.DB
	Groups   *groups.Store
	Counters *conditions.Counters
	Blocks   *netblock.Set
	Mailbox  *notify.Mailbox
	Reliable *notify.Reliable
	Audit    *audit.Ring
	Network  *ids.StaticSpoofList
	Scorer   *adaptive.Engine
	Values   *gaa.Values

	// SystemSwap and LocalSwap are the live policy swap points the
	// guard serves from; Reloader swaps validated bundles through them.
	SystemSwap *gaa.SwappableSource
	LocalSwap  *gaa.SwappableSource
	// Reloader validates and applies hot policy reloads; its health
	// window drives the post-swap rollback probe. Reload re-reads the
	// policy files; a stack built from policy text has none to re-read
	// and takes replacement text through ReloadPolicies.
	Reloader *Reloader
	// Store and Persist are the crash-safe state store and its adaptive
	// wiring (Store nil without StateDir; Persist also wired store-less
	// in cluster mode, as the replication tap and merge point).
	Store   *statestore.Store
	Persist *statestore.Adaptive
	// Cluster is the replication node (nil unless NodeID was set).
	// NewStack does not start it: a server calls Cluster.Start once it
	// is listening; a simulated fleet steps Cluster.Push.
	Cluster *cluster.Node

	// Metrics is the observability registry (nil unless
	// StackConfig.Metrics was set).
	Metrics *metrics.Registry

	detects     bool // runs the correlator or the scorer: Tick lowers the level
	async       *notify.Async
	accessLog   *os.File
	handlerOnce sync.Once
	handler     http.Handler
}

// NewStack wires everything; it is the one composition root (gaa-httpd
// is NewStack plus flags). The returned stack must be Closed.
func NewStack(cfg StackConfig) (_ *Stack, err error) {
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	st := &Stack{
		Threat:   ids.NewManager(ids.Low, ids.WithManagerClock(clock)),
		Bus:      ids.NewBus(),
		Sigs:     ids.NewDB(ids.DefaultSignatures()...),
		Groups:   groups.NewStore(),
		Counters: conditions.NewCounters(clock),
		Blocks:   netblock.NewSet(netblock.WithClock(clock)),
		Mailbox:  notify.NewMailbox(cfg.NotifyLatency),
		Audit:    audit.NewRing(1024),
		Network:  ids.NewStaticSpoofList(0.9, cfg.SpoofedSources...),
		Values:   gaa.NewValues(),
		detects:  cfg.LevelValues != nil || cfg.Adaptive != nil,
	}
	// Every failure below unwinds through Close, which is safe on a
	// half-built stack.
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	for name, value := range cfg.RuntimeValues {
		st.Values.Set(name, value)
	}

	// The adaptive scorer exists before statestore.Attach so restore
	// and journaling cover its score/profile records.
	if cfg.Adaptive != nil {
		st.Scorer = adaptive.New(*cfg.Adaptive, st.Threat, st.Blocks)
	}

	// Crash-safe adaptive state: restore what a previous process
	// journaled, then journal every further mutation. Must happen
	// before any traffic mutates the components.
	if cfg.StateDir != "" {
		fsyncPolicy, err := statestore.ParseFsyncPolicy(cfg.Fsync)
		if err != nil {
			return nil, err
		}
		st.Store, err = statestore.Open(cfg.StateDir, statestore.Options{
			Fsync:            fsyncPolicy,
			SnapshotInterval: cfg.SnapshotInterval,
			FS:               cfg.StoreFS,
			Clock:            clock,
		})
		if err != nil {
			return nil, err
		}
	}
	// Cluster mode replicates adaptive-state mutations to the fleet
	// through the same attachment: its tap works with or without a disk
	// journal, so a store-less node still ships and merges state.
	clustered := cfg.NodeID != "" || len(cfg.Peers) > 0
	if st.Store != nil || clustered {
		st.Persist, err = statestore.Attach(st.Store, statestore.Components{
			Blocks:   st.Blocks,
			Threat:   st.Threat,
			Counters: st.Counters,
			Groups:   st.Groups,
			Scorer:   st.Scorer,
			Clock:    clock,
		})
		if err != nil {
			return nil, err
		}
	}
	if clustered {
		// Breaker cooldowns, backoff and the degraded window follow the
		// stack's clock, a simulated campaign's included.
		st.Cluster, err = cluster.New(cluster.Config{
			NodeID:       cfg.NodeID,
			Peers:        cfg.Peers,
			State:        st.Persist,
			Transport:    cfg.ClusterTransport,
			PushInterval: cfg.ReplicationInterval,
			Clock:        clock,
		})
		if err != nil {
			return nil, err
		}
	}

	var apiOpts []gaa.Option
	apiOpts = append(apiOpts, gaa.WithClock(clock), gaa.WithValues(st.Values))
	if cfg.Metrics {
		st.Metrics = metrics.NewRegistry()
		apiOpts = append(apiOpts, gaa.WithMetrics(st.Metrics),
			gaa.WithMetricsSampling(gaa.DefaultMetricsSampleShift))
	}
	if cfg.PolicyCache {
		// 4096 entries of 208 bytes, their compositions shared: under
		// 1 MB when full (internal/gaa's cost ledger).
		apiOpts = append(apiOpts, gaa.WithPolicyCache(4096))
	}
	if cfg.EvaluatorTimeout > 0 {
		apiOpts = append(apiOpts, gaa.WithEvaluatorTimeout(cfg.EvaluatorTimeout))
	}
	if cfg.EvaluatorWrapper != nil {
		apiOpts = append(apiOpts, gaa.WithEvaluatorWrapper(cfg.EvaluatorWrapper))
	}
	st.API = gaa.New(apiOpts...)

	conditions.Register(st.API, conditions.Deps{
		Threat:     st.Threat,
		Groups:     st.Groups,
		Counters:   st.Counters,
		Signatures: st.Sigs,
	})
	var notifier notify.Notifier = st.Mailbox
	if cfg.NotifierWrapper != nil {
		notifier = cfg.NotifierWrapper(notifier)
	}
	if cfg.ReliableNotify {
		st.Reliable = notify.NewReliable(notifier, clock)
		notifier = st.Reliable
	}
	if cfg.AsyncNotify {
		st.async = notify.NewAsync(notifier)
		notifier = st.async
	}
	actions.Register(st.API, actions.Deps{
		Notifier: notifier,
		Groups:   st.Groups,
		Audit:    st.Audit,
		Threat:   st.Threat,
		Blocks:   st.Blocks,
		Counters: st.Counters,
		Spoof:    st.Network,
	})

	// The guard serves through swap points so a validated policy
	// reload can replace both source levels atomically.
	bundle, err := cfg.loadBundle()
	if err != nil {
		return nil, err
	}
	st.SystemSwap = gaa.NewSwappableSource(bundle.System)
	st.LocalSwap = gaa.NewSwappableSource(bundle.Local)
	reload := ReloadConfig{System: st.SystemSwap, Local: st.LocalSwap, Known: st.API.Known}
	if cfg.SystemPolicyFile != "" || cfg.LocalPolicyDir != "" {
		reload.Load = cfg.loadBundle
	}
	st.Reloader = NewReloader(reload)

	st.Guard = New(Config{
		API:              st.API,
		System:           []gaa.PolicySource{st.SystemSwap},
		Local:            []gaa.PolicySource{st.LocalSwap},
		Bus:              st.Bus,
		Signatures:       st.Sigs,
		Network:          st.Network,
		Scorer:           st.Scorer,
		Audit:            st.Audit,
		SensitiveObjects: cfg.SensitiveObjects,
		Health:           st.Reloader,
	})

	htauth := httpd.NewHtpasswd()
	if cfg.HtpasswdFile != "" {
		f, err := os.Open(cfg.HtpasswdFile)
		if err != nil {
			return nil, fmt.Errorf("htpasswd: %w", err)
		}
		htauth, err = httpd.ParseHtpasswd(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("htpasswd %s: %w", cfg.HtpasswdFile, err)
		}
	}
	for user, pass := range cfg.Users {
		htauth.SetPassword(user, pass)
	}
	var htaccess httpd.HtaccessSource
	if cfg.LocalPolicyDir != "" {
		htaccess = httpd.NewDirHtaccessSource(cfg.LocalPolicyDir, ".htaccess")
	} else {
		mapped := httpd.NewMapHtaccessSource()
		for dir, src := range cfg.Htaccess {
			if err := mapped.SetString(dir, src); err != nil {
				return nil, fmt.Errorf("htaccess %q: %w", dir, err)
			}
		}
		htaccess = mapped
	}
	var files httpd.FileRoot
	if cfg.DocRootDir != "" {
		files = httpd.NewOSRoot(cfg.DocRootDir)
	}

	accessLog := cfg.AccessLog
	if cfg.AccessLogFile != "" {
		st.accessLog, err = os.OpenFile(cfg.AccessLogFile, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("open access log: %w", err)
		}
		accessLog = st.accessLog
	}

	st.Server = httpd.NewServer(httpd.Config{
		DocRoot:   cfg.DocRoot,
		Files:     files,
		Scripts:   httpd.NewDemoRegistry(),
		Mounts:    st.adminMounts(cfg.Pprof),
		Guards:    []httpd.Guard{st.Guard, httpd.NewBaselineGuard(htaccess, nil)},
		Auth:      htauth,
		Blocks:    st.Blocks,
		AccessLog: accessLog,
		Clock:     clock,
	})
	if st.Metrics != nil {
		RegisterComponentMetrics(st.Metrics, Components{
			Threat:   st.Threat,
			Bus:      st.Bus,
			Blocks:   st.Blocks,
			Reliable: st.Reliable,
			Store:    st.Store,
			Persist:  st.Persist,
			Reloader: st.Reloader,
			Cluster:  st.Cluster,
			Scorer:   st.Scorer,
		})
	}
	if cfg.LevelValues != nil {
		st.startHostIDS(clock, cfg.LevelValues)
	}
	return st, nil
}

// loadBundle parses the configured policy set fresh — the files where
// SystemPolicyFile and LocalPolicyDir name them, the policy text
// otherwise — at start-up and, for the files, on every reload.
func (cfg StackConfig) loadBundle() (*PolicyBundle, error) {
	system, locals := cfg.SystemPolicy, cfg.LocalPolicies
	if cfg.SystemPolicyFile != "" {
		raw, err := os.ReadFile(cfg.SystemPolicyFile)
		if err != nil {
			return nil, fmt.Errorf("system policy: %w", err)
		}
		system = string(raw)
	}
	if cfg.LocalPolicyDir != "" {
		locals = nil
	}
	b, err := BundleFromStrings(system, locals)
	if err != nil || cfg.LocalPolicyDir == "" {
		return b, err
	}
	// The guard serves the tree this load parsed and the analyzer vets,
	// so an edit is served once a reload has proved it, and no request
	// stats a policy file.
	local := gaa.NewDirSource(cfg.LocalPolicyDir, ".eacl")
	b.Local = local
	b.LocalEACLs, err = local.Files()
	return b, err
}

// startHostIDS makes the correlator a bus listener and the value tuner a
// threat-level listener, both synchronous: a report has moved the level,
// and the level current now (a restart may have restored it) and every
// later one has its values in place, before the request that published
// it returns. A report from a spoof-suspected source never reaches the
// correlator, so it neither counts toward escalation nor renews a hold:
// the paper's section 3 rule that update_log and block_ip follow.
func (s *Stack) startHostIDS(clock func() time.Time, levelValues map[ids.Level]map[string]string) {
	corrCfg := ids.DefaultCorrelatorConfig()
	corrCfg.Clock = clock
	correlator := ids.NewCorrelator(s.Threat, corrCfg)
	tuner := ids.NewValueTuner(s.Values)
	for level, values := range levelValues {
		tuner.SetLevelValues(level, values)
	}
	s.Threat.OnChange(func(tr ids.Transition) { tuner.Apply(tr.To) })
	tuner.Apply(s.Threat.Level())
	s.Bus.OnReport(func(r ids.Report) {
		if spoofed, _ := s.Network.SpoofIndication(r.ClientIP); !spoofed {
			correlator.Observe(r)
		}
	})
}

// Tick steps the threat level down once its hold has lapsed at now
// (ids.Manager.Tick), on a stack that runs a detector. A caller that
// owns the clock calls it, as with Cluster.Push (DESIGN.md §9).
func (s *Stack) Tick(now time.Time) {
	if s.detects {
		s.Threat.Tick(now)
	}
}

// ReloadPolicies parses, analyzes, and — if clean at severity <
// error — atomically applies a replacement policy set. On rejection
// the running policies are untouched and the result carries the
// diagnostics.
func (s *Stack) ReloadPolicies(system string, locals map[string]string) ReloadResult {
	return s.Reloader.ReloadWith(func() (*PolicyBundle, error) {
		return BundleFromStrings(system, locals)
	})
}

// Close releases background workers (the cluster pushers, if started,
// and the async notifier) and flushes the state store. The scorer and
// the host-IDS correlator run on the request and hold nothing to
// release. It is safe on a stack NewStack gave up on half-way.
func (s *Stack) Close() {
	if s.Cluster != nil {
		s.Cluster.Stop()
	}
	if s.async != nil {
		s.async.Close()
	}
	if s.Store != nil {
		s.Store.Close()
	}
	if s.accessLog != nil {
		s.accessLog.Close()
	}
}
