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
	"strings"
	"sync"

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
	// Authority names the defining authority of the web server's
	// rights; defaults to "apache".
	Authority string

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
	// consulted for unusual-behaviour reports.
	Anomaly *ids.Detector
	// Scorer, when non-nil, receives one sample per authorization
	// decision — the self-adaptive threat-scoring feed. Unlike the bus
	// reports (only notable requests), the scorer sees every decision,
	// which is what its rate and error-ratio estimators need.
	Scorer *adaptive.Engine
	// Audit, when non-nil, records every authorization decision.
	Audit audit.Logger

	// IllFormedHeaderMax flags requests with more headers as
	// ill-formed (paper section 1: "a large number of HTTP headers");
	// 0 means 64.
	IllFormedHeaderMax int
	// AbnormalInputLength flags larger operation inputs as abnormal
	// parameters (paper section 3 item 2); 0 means 1000, the paper's
	// buffer-overflow bound.
	AbnormalInputLength int
	// SensitiveObjects are glob patterns whose denials are reported as
	// sensitive-access denials (section 3 item 3).
	SensitiveObjects []string

	// Health, when non-nil, receives one observation per request:
	// bad when the decision degraded (MAYBE, evaluator faults, or a
	// retrieval error). The reload health probe reads this to decide
	// post-swap rollbacks.
	Health HealthObserver
}

// Guard implements httpd.Guard over the GAA-API.
type Guard struct {
	cfg Config
}

var _ httpd.Guard = (*Guard)(nil)

// New builds the guard, applying defaults.
func New(cfg Config) *Guard {
	if cfg.Authority == "" {
		cfg.Authority = "apache"
	}
	if cfg.IllFormedHeaderMax <= 0 {
		cfg.IllFormedHeaderMax = 64
	}
	if cfg.AbnormalInputLength <= 0 {
		cfg.AbnormalInputLength = 1000
	}
	return &Guard{cfg: cfg}
}

// ExtractParams converts a request record into GAA parameters (paper
// section 6 step 2b: parameters "classified with type and authority so
// that GAA-API routines ... could find the relevant parameters").
func ExtractParams(rec *httpd.RequestRec) gaa.ParamList {
	// Capacity covers every fixed parameter plus the optional user, so
	// the append below never reallocates.
	return appendParams(make(gaa.ParamList, 0, 9), rec)
}

// appendParams appends the record's parameters to ps; Check feeds it a
// pooled backing array instead of allocating one per request.
func appendParams(ps gaa.ParamList, rec *httpd.RequestRec) gaa.ParamList {
	ps = append(ps, gaa.ParamList{
		{Type: gaa.ParamClientIP, Authority: gaa.AuthorityAny, Value: rec.ClientIP},
		{Type: gaa.ParamRequestURI, Authority: gaa.AuthorityAny, Value: rec.URI},
		{Type: gaa.ParamMethod, Authority: gaa.AuthorityAny, Value: rec.Method},
		{Type: gaa.ParamPath, Authority: gaa.AuthorityAny, Value: rec.Path},
		{Type: gaa.ParamQuery, Authority: gaa.AuthorityAny, Value: rec.Query},
		{Type: gaa.ParamObject, Authority: gaa.AuthorityAny, Value: rec.Object()},
		{Type: gaa.ParamInputLength, Authority: gaa.AuthorityAny, Value: strconv.Itoa(rec.InputLength)},
		{Type: gaa.ParamHeaderCount, Authority: gaa.AuthorityAny, Value: strconv.Itoa(rec.HeaderCount)},
	}...)
	if rec.User != "" {
		ps = append(ps, gaa.Param{Type: gaa.ParamUser, Authority: gaa.AuthorityAny, Value: rec.User})
	}
	return ps
}

// Rights builds the requested rights for a record: the specific
// "<METHOD> <path>" right under the configured authority. Policies
// match it with globs ("*", "GET /cgi-bin/*").
func (g *Guard) Rights(rec *httpd.RequestRec) []eacl.Right {
	return []eacl.Right{{
		Sign:    eacl.Pos,
		DefAuth: g.cfg.Authority,
		Value:   rec.Method + " " + rec.Path,
	}}
}

// checkState is the pooled per-check working set: the request, the
// answer (whose Mid and Post arrays CheckAuthorizationInto reuses), and
// the backing arrays for the rights and parameter lists.
type checkState struct {
	req    gaa.Request
	ans    gaa.Answer
	rights [1]eacl.Right
	params [9]gaa.Param
}

var checkPool = sync.Pool{New: func() any { return new(checkState) }}

// Check implements httpd.Guard: the access-control phase plus hooks
// for the execution-control and post-execution phases.
func (g *Guard) Check(rec *httpd.RequestRec) httpd.Verdict {
	ctx := context.Background()
	policy, err := g.cfg.API.GetObjectPolicyInfo(rec.Object(), g.cfg.System, g.cfg.Local)
	if err != nil {
		g.observe(true)
		// Fail closed: a retrieval error must not grant access.
		return httpd.Verdict{Status: httpd.Forbidden("policy retrieval: " + err.Error())}
	}
	cs := checkPool.Get().(*checkState)
	// One string per check: the audit record's "<authority> <METHOD>
	// <path>", of which the requested right's value is the tail.
	right := g.cfg.Authority + " " + rec.Method + " " + rec.Path
	cs.rights[0] = eacl.Right{
		Sign:    eacl.Pos,
		DefAuth: g.cfg.Authority,
		Value:   right[len(g.cfg.Authority)+1:],
	}
	cs.req = gaa.Request{
		Rights: cs.rights[:1],
		Params: appendParams(cs.params[:0], rec),
		Time:   rec.Time,
	}
	req, ans := &cs.req, &cs.ans
	if err := g.cfg.API.CheckAuthorizationInto(ctx, policy, req, ans); err != nil {
		checkPool.Put(cs)
		g.observe(true)
		return httpd.Verdict{Status: httpd.Forbidden("authorization: " + err.Error())}
	}
	g.observe(ans.Decision == gaa.Maybe || len(ans.Faults) > 0)

	g.report(rec, ans)
	g.auditDecision(rec, right, ans)

	verdict := httpd.Verdict{Status: translate(ans)}
	if len(ans.Mid) > 0 {
		verdict.Monitor = func(snap execctl.Snapshot) bool {
			dec, _ := g.cfg.API.ExecutionControl(ctx, ans, req, snap.Params()...)
			return dec != gaa.No
		}
	}
	if len(ans.Post) > 0 {
		verdict.Post = func(success bool) {
			opStatus := gaa.Yes
			if !success {
				opStatus = gaa.No
			}
			g.cfg.API.PostExecutionActions(ctx, ans, req, opStatus)
			// Post is the last hook the server runs (httpd.Verdict), so
			// the state is recycled here.
			checkPool.Put(cs)
		}
	} else if verdict.Monitor == nil {
		// The later phases hold no reference to the state; recycle it.
		checkPool.Put(cs)
	}
	// A Monitor without a Post, or hooks the server never runs (a deny
	// whose deciding entry has mid/post blocks), leave the state to the
	// GC with the closures.
	return verdict
}

// observe reports one request-health observation to the reload probe.
func (g *Guard) observe(bad bool) {
	if g.cfg.Health != nil {
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
// feeds the anomaly profiles and the adaptive scorer.
func (g *Guard) report(rec *httpd.RequestRec, ans *gaa.Answer) {
	principal := rec.User
	if principal == "" {
		principal = rec.ClientIP
	}
	if g.cfg.Bus == nil && g.cfg.Scorer == nil {
		// No consumer for the report classes: keep only the profile
		// training (the pre-existing bus-less behaviour).
		if g.cfg.Anomaly != nil && ans.Decision == gaa.Yes {
			g.cfg.Anomaly.Observe(principal, rec.Path, rec.InputLength)
		}
		return
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
		Source:   g.cfg.Authority,
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
	if rec.InputLength > g.cfg.AbnormalInputLength {
		r := base
		r.Kind = ids.AbnormalParameters
		r.Severity = ids.SevMedium
		r.Confidence = 0.6
		r.Info = "operation input length " + strconv.Itoa(rec.InputLength)
		observe(r.Severity)
		publish(r)
	}
	switch ans.Decision {
	case gaa.No:
		// 5. Detected application-level attacks, with threat
		// characteristics from the signature database.
		if g.cfg.Signatures != nil {
			if hits := g.cfg.Signatures.Match(rec.URI); len(hits) > 0 {
				r := base
				r.Kind = ids.DetectedAttack
				r.Signature = hits[0].Name
				r.Severity = hits[0].Severity
				r.Confidence = 0.9
				r.Info = hits[0].Kind
				r.Recommendation = hits[0].Recommendation
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
	if rec.HeaderCount > g.cfg.IllFormedHeaderMax {
		return true
	}
	for _, r := range rec.URI {
		if r < 0x20 && r != '\t' {
			return true
		}
	}
	return strings.Contains(rec.URI, "\\")
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
