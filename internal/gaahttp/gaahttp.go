// Package gaahttp is the glue between the GAA-API and the web server —
// the paper's modified ap_check_access (section 6): it extracts request
// context into GAA parameters, builds the requested rights, retrieves
// and composes the object's policies, runs the three enforcement
// phases, translates the tri-state answer into Apache-style statuses,
// and reports security-relevant observations to the IDS bus (the seven
// report classes of section 3).
package gaahttp

import (
	"context"
	"strconv"
	"sync"
	"unsafe"

	"gaaapi/internal/audit"
	"gaaapi/internal/eacl"
	"gaaapi/internal/execctl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/httpd"
	"gaaapi/internal/ids"
	"gaaapi/internal/ids/adaptive"
)

// Config assembles a Guard.
type Config struct {
	// API is the initialized GAA-API with condition and action
	// evaluators registered.
	API *gaa.API
	// System and Local are the policy sources composed per request
	// (paper section 2.1).
	System, Local []gaa.PolicySource

	// Bus, when non-nil, receives GAA-to-IDS reports.
	Bus *ids.Bus
	// Signatures, when non-nil, classifies denied requests into attack
	// reports with severity and recommendations.
	Signatures *ids.DB
	// Network, when non-nil, is the network-based IDS queried for
	// spoofing indications; spoof-suspected sources get their
	// blacklisting recommendation withdrawn in attack reports (paper
	// section 3).
	Network ids.NetworkIDS
	// Anomaly, when non-nil, is trained on granted requests and
	// consulted for unusual-behaviour reports. NewStack leaves it nil:
	// the live stack's anomaly feed is the adaptive scorer.
	Anomaly *ids.Detector
	// Scorer, when non-nil, receives one sample per authorization
	// decision — the self-adaptive threat-scoring feed. Unlike the bus
	// reports (only notable requests), the scorer sees every decision,
	// which is what its rate and error-ratio estimators need.
	Scorer *adaptive.Engine
	// Audit, when non-nil, records every authorization decision.
	Audit audit.Logger

	// SensitiveObjects are glob patterns whose denials are reported as
	// sensitive-access denials (section 3 item 3).
	SensitiveObjects []string

	// Health, when non-nil, receives one observation per request:
	// bad when the decision degraded (MAYBE, evaluator faults, or a
	// retrieval error). The reload health probe reads this to decide
	// post-swap rollbacks.
	Health HealthObserver
}

const (
	// authority is the defining authority of the web server's rights.
	authority = "apache"
	// illFormedHeaderMax flags requests with more headers as ill-formed
	// (paper section 1: "a large number of HTTP headers").
	illFormedHeaderMax = 64
	// abnormalInputLength flags larger operation inputs as abnormal
	// parameters (paper section 3 item 2): the paper's buffer-overflow
	// bound.
	abnormalInputLength = 1000
)

// Guard implements httpd.Guard over the GAA-API.
type Guard struct {
	cfg  Config
	pool sync.Pool // of *checkState
}

var _ httpd.Guard = (*Guard)(nil)

// New builds the guard.
func New(cfg Config) *Guard {
	g := &Guard{cfg: cfg}
	g.pool.New = func() any {
		cs := &checkState{g: g}
		cs.rights[0] = eacl.Right{Sign: eacl.Pos, DefAuth: authority}
		cs.params.init()
		cs.digits = make([]byte, 0, 6*20)
		cs.req.Rights, cs.req.Params = cs.rights[:], cs.params[:]
		cs.monitor, cs.post = cs.executionControl, cs.postExecution
		return cs
	}
	return g
}

// ExtractParams converts a request record into GAA parameters (paper
// section 6 step 2b: parameters "classified with type and authority so
// that GAA-API routines ... could find the relevant parameters").
func ExtractParams(rec *httpd.RequestRec) gaa.ParamList {
	ps := new(struct {
		params
		digits [2 * 20]byte
	})
	ps.init()
	n, _ := ps.set(rec, ps.digits[:0])
	return ps.params[:n]
}

// params holds a record's parameters, the optional user last. Pooled,
// only the values are rewritten: in a GC cycle each costs a barrier.
type params [8]gaa.Param

func (ps *params) init() {
	for i, t := range [len(ps)]string{gaa.ParamClientIP, gaa.ParamRequestURI, gaa.ParamMethod,
		gaa.ParamQuery, gaa.ParamObject, gaa.ParamInputLength, gaa.ParamHeaderCount, gaa.ParamUser} {
		ps[i] = gaa.Param{Type: t, Authority: gaa.AuthorityAny}
	}
}

// set writes rec's values, the two numbers after digits' contents, and
// returns how many of ps a request carries and digits with the numbers,
// which ps borrows.
func (ps *params) set(rec *httpd.RequestRec, digits []byte) (int, []byte) {
	start := len(digits)
	digits = strconv.AppendInt(digits, int64(rec.InputLength), 10)
	mid := len(digits)
	digits = strconv.AppendInt(digits, int64(rec.HeaderCount), 10)
	text := unsafe.String(unsafe.SliceData(digits), len(digits))
	for i, v := range [len(ps)]string{rec.ClientIP, rec.URI, rec.Method, rec.Query, rec.Object(),
		text[start:mid], text[mid:], rec.User} {
		ps[i].Value = v
	}
	if rec.User == "" {
		return len(ps) - 1, digits
	}
	return len(ps), digits
}

// Rights builds the requested rights for a record: the specific
// "<METHOD> <path>" right under the server's authority. Policies
// match it with globs ("*", "GET /cgi-bin/*").
func (g *Guard) Rights(rec *httpd.RequestRec) []eacl.Right {
	return []eacl.Right{{
		Sign:    eacl.Pos,
		DefAuth: authority,
		Value:   rec.Method + " " + rec.Path,
	}}
}

// checkState is the guard's pooled per-check working set: the request,
// the answer (whose Mid and Post arrays CheckAuthorizationInto reuses),
// the backing arrays of its lists, and the verdict's hooks, bound once.
type checkState struct {
	g         *Guard
	req       gaa.Request
	ans       gaa.Answer
	rights    [1]eacl.Right
	params    params
	mid       gaa.Request // req with the usage snapshot after its parameters
	midParams [len(params{}) + 4]gaa.Param
	monitor   func(execctl.Snapshot) bool
	post      func(success bool)
	// digits holds the text of the numeric parameters, at most 20 bytes
	// each: the record's two, then the usage snapshot's four, rewritten
	// by each check.
	digits []byte
}

// executionControl is the verdict's Monitor, called one at a time, on
// the phase's whole request: hoisted mid-conditions run on it as it is.
func (cs *checkState) executionControl(snap execctl.Snapshot) bool {
	cs.mid = cs.req
	cs.mid.Params, _ = snap.AppendParams(append(cs.midParams[:0], cs.req.Params...), cs.digits)
	dec, _ := cs.g.cfg.API.ExecutionControl(context.Background(), &cs.ans, &cs.mid)
	return dec != gaa.No
}

// postExecution is the verdict's Post, the server's last hook, so it
// recycles the state (httpd.Verdict).
func (cs *checkState) postExecution(success bool) {
	opStatus := gaa.Yes
	if !success {
		opStatus = gaa.No
	}
	cs.g.cfg.API.PostExecutionActions(context.Background(), &cs.ans, &cs.req, opStatus)
	cs.g.pool.Put(cs)
}

// Check implements httpd.Guard: the access-control phase plus hooks
// for the execution-control and post-execution phases.
func (g *Guard) Check(rec *httpd.RequestRec) httpd.Verdict {
	system, local := g.cfg.System, g.cfg.Local
	if rec.Mount != nil {
		// The server's own endpoint: admin.eacl alone decides it.
		system, local = adminSources, nil
	}
	policy, err := g.cfg.API.GetObjectPolicyInfo(rec.Object(), system, local)
	if err != nil {
		g.observe(rec, true)
		// Fail closed: a retrieval error must not grant access.
		return httpd.Verdict{Status: httpd.Forbidden("policy retrieval: " + err.Error())}
	}
	cs := g.pool.Get().(*checkState)
	// The audit record's "<authority> <METHOD> <path>", of which the
	// requested right's value is the tail. The policy's rights memo
	// keeps it in its own bytes from the object's first check; another
	// method, or a label too long for the memo, builds it.
	label := policy.RightLabel(authority, rec.Method, rec.Path)
	cs.req.Label, cs.req.URIPlain = label, rec.PlainURI()
	cs.rights[0].Value = label[len(authority)+1:]
	n, digits := cs.params.set(rec, cs.digits[:0])
	cs.req.Params, cs.digits = cs.req.Params[:n], digits
	cs.req.Time = rec.Time
	ans := &cs.ans
	if err := g.cfg.API.CheckAuthorizationInto(context.Background(), policy, &cs.req, ans); err != nil {
		g.pool.Put(cs)
		g.observe(rec, true)
		return httpd.Verdict{Status: httpd.Forbidden("authorization: " + err.Error())}
	}
	g.observe(rec, ans.Decision == gaa.Maybe || len(ans.Faults) > 0)

	g.report(rec, ans)
	g.auditDecision(rec, label, ans)

	verdict := httpd.Verdict{Status: translate(ans)}
	if len(ans.Mid) > 0 {
		verdict.Monitor = cs.monitor
	}
	if len(ans.Post) > 0 {
		verdict.Post = cs.post
	} else if verdict.Monitor == nil {
		// The later phases hold no reference to the state; recycle it.
		g.pool.Put(cs)
	}
	// A Monitor without a Post, or hooks the server never runs (a deny
	// whose deciding entry has mid/post blocks), leave the state to the
	// GC.
	return verdict
}

// observe reports one request-health observation to the reload probe;
// a mounted object is none (see report).
func (g *Guard) observe(rec *httpd.RequestRec, bad bool) {
	if g.cfg.Health != nil && rec.Mount == nil {
		g.cfg.Health.Observe(bad)
	}
}

// translate maps the GAA answer to the web server's status vocabulary
// (paper section 6 step 2d).
func translate(ans *gaa.Answer) httpd.AccessStatus {
	switch ans.Decision {
	case gaa.Yes:
		return httpd.OK("authorized by GAA policy")
	case gaa.No:
		if ans.Challenge != "" {
			return httpd.AuthRequired(ans.Challenge, "GAA policy requires authentication")
		}
		return httpd.Forbidden("denied by GAA policy")
	default: // Maybe
		// "The server checks whether there is only one unevaluated
		// condition of the type pre_cond_redirect and creates a
		// redirected request using the URL from the condition value."
		if cond, ok := ans.UnevaluatedOnly("redirect"); ok {
			return httpd.Moved(cond.Value, "GAA adaptive redirection")
		}
		return httpd.Declined("GAA uncertain; native access control decides")
	}
}

// report publishes the section 3 report classes to the IDS bus and
// feeds the anomaly profiles, if any, and the adaptive scorer. A
// mounted object (a peer's push, a health poll) is audited but is no
// evidence about the server's clients, so it reports nothing.
func (g *Guard) report(rec *httpd.RequestRec, ans *gaa.Answer) {
	if rec.Mount != nil {
		return
	}
	principal := rec.User
	if principal == "" {
		principal = rec.ClientIP
	}

	// worst tracks the highest severity among the threat reports this
	// request triggered; the adaptive scorer receives it with the
	// sample (legitimate-pattern reports do not count — they are
	// profile-building material, not suspicion). The checks run even
	// without a bus so the scorer feed does not depend on bus wiring.
	var worst ids.Severity
	observe := func(sev ids.Severity) {
		if sev > worst {
			worst = sev
		}
	}

	base := ids.Report{
		Time:     rec.Time,
		Source:   authority,
		ClientIP: rec.ClientIP,
		User:     rec.User,
		Object:   rec.Object(),
	}
	publish := func(r ids.Report) {
		if g.cfg.Bus != nil {
			g.cfg.Bus.Publish(r)
		}
	}
	// 1. Ill-formed requests.
	if g.illFormed(rec) {
		r := base
		r.Kind = ids.IllFormedRequest
		r.Severity = ids.SevMedium
		r.Confidence = 0.7
		r.Info = "malformed request line or excessive headers"
		observe(r.Severity)
		publish(r)
	}
	// 2. Abnormally large parameters.
	if rec.InputLength > abnormalInputLength {
		r := base
		r.Kind = ids.AbnormalParameters
		r.Severity = ids.SevMedium
		r.Confidence = 0.6
		var info [64]byte
		r.Info = string(strconv.AppendInt(append(info[:0], "operation input length "...), int64(rec.InputLength), 10))
		observe(r.Severity)
		publish(r)
	}
	switch ans.Decision {
	case gaa.No:
		// 5. Detected application-level attacks, with threat
		// characteristics from the signature database.
		if g.cfg.Signatures != nil {
			if hit, ok := g.cfg.Signatures.First(rec.URI, ""); ok {
				r := base
				r.Kind = ids.DetectedAttack
				r.Signature = hit.Name
				r.Severity = hit.Severity
				r.Confidence = 0.9
				r.Info = hit.Kind
				r.Recommendation = hit.Recommendation
				if g.cfg.Network != nil {
					if spoofed, conf := g.cfg.Network.SpoofIndication(rec.ClientIP); spoofed {
						r.Recommendation = "do not blacklist: source address suspected spoofed"
						r.Confidence *= 1 - conf
					}
				}
				observe(r.Severity)
				publish(r)
			}
		}
		// 3. Access denials to sensitive objects.
		for _, pat := range g.cfg.SensitiveObjects {
			if eacl.Glob(pat, rec.Object()) {
				r := base
				r.Kind = ids.SensitiveAccessDenial
				r.Severity = ids.SevMedium
				r.Confidence = 0.8
				r.Info = "denied access to sensitive object"
				observe(r.Severity)
				publish(r)
				break
			}
		}
	case gaa.Yes:
		// 6. Unusual (but authorized) behaviour per the anomaly
		// profiles; 7. legitimate patterns for profile building. Observe
		// also trains the profile on the grant, after scoring it.
		if g.cfg.Anomaly != nil && g.cfg.Anomaly.Observe(principal, rec.Path, rec.InputLength) {
			r := base
			r.Kind = ids.UnusualBehavior
			r.Severity = ids.SevMedium
			r.Confidence = 0.5
			r.Info = "request deviates from trained profile"
			observe(r.Severity)
			publish(r)
		} else if g.cfg.Bus != nil {
			r := base
			r.Kind = ids.LegitimatePattern
			r.Severity = ids.SevInfo
			r.Confidence = 0.5
			g.cfg.Bus.Publish(r)
		}
	}

	if g.cfg.Scorer != nil {
		g.cfg.Scorer.ObserveRequest(adaptive.Sample{
			Time:     rec.Time,
			Source:   rec.ClientIP,
			User:     rec.User,
			Path:     rec.Path,
			Query:    rec.Query,
			InputLen: rec.InputLength,
			Denied:   ans.Decision == gaa.No,
			Severity: worst,
		})
	}
}

// illFormed applies cheap application-level sanity checks (paper
// section 3 item 1: "the API can apply application level knowledge to
// determine whether the request is properly formed").
func (g *Guard) illFormed(rec *httpd.RequestRec) bool {
	if rec.HeaderCount > illFormedHeaderMax {
		return true
	}
	// A plain URI has no control byte or backslash; others take the loop.
	if rec.PlainURI() {
		return false
	}
	for i := 0; i < len(rec.URI); i++ {
		if c := rec.URI[i]; c < 0x20 && c != '\t' || c == '\\' {
			return true
		}
	}
	return false
}

func (g *Guard) auditDecision(rec *httpd.RequestRec, right string, ans *gaa.Answer) {
	if g.cfg.Audit == nil {
		return
	}
	_ = g.cfg.Audit.Log(audit.Record{
		Time:     rec.Time,
		Kind:     "gaa_check_authorization",
		Object:   rec.Object(),
		Right:    right,
		Decision: ans.Decision.String(),
		ClientIP: rec.ClientIP,
		User:     rec.User,
	})
}
