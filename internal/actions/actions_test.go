package actions

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/audit"
	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
	"gaaapi/internal/netblock"
	"gaaapi/internal/notify"
)

// harness wires an API with both condition and action evaluators and
// inspectable substrate state.
type harness struct {
	api      *gaa.API
	mailbox  *notify.Mailbox
	groups   *groups.Store
	ring     *audit.Ring
	threat   *ids.Manager
	blocks   *netblock.Set
	counters *conditions.Counters
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{
		mailbox:  notify.NewMailbox(0),
		groups:   groups.NewStore(),
		ring:     audit.NewRing(64),
		threat:   ids.NewManager(ids.Low),
		blocks:   netblock.NewSet(),
		counters: conditions.NewCounters(nil),
	}
	h.api = gaa.New()
	conditions.Register(h.api, conditions.Deps{
		Threat:   h.threat,
		Groups:   h.groups,
		Counters: h.counters,
	})
	Register(h.api, Deps{
		Notifier: h.mailbox,
		Groups:   h.groups,
		Audit:    h.ring,
		Threat:   h.threat,
		Blocks:   h.blocks,
		Counters: h.counters,
	})
	return h
}

func (h *harness) check(t *testing.T, policySrc string, params ...gaa.Param) *gaa.Answer {
	t.Helper()
	e, err := eacl.ParseString(policySrc)
	if err != nil {
		t.Fatalf("parse policy: %v", err)
	}
	p := gaa.NewPolicy("/x", nil, []*eacl.EACL{e})
	req := gaa.NewRequest("apache", "GET /x", params...)
	ans, err := h.api.CheckAuthorization(context.Background(), p, req)
	if err != nil {
		t.Fatalf("CheckAuthorization: %v", err)
	}
	return ans
}

func params(ip, uri string) []gaa.Param {
	return []gaa.Param{
		{Type: gaa.ParamClientIP, Authority: gaa.AuthorityAny, Value: ip},
		{Type: gaa.ParamRequestURI, Authority: gaa.AuthorityAny, Value: uri},
	}
}

// TestPaperSection72Scenario runs the paper's CGI-abuse policy
// end-to-end: a phf request is denied, the administrator is notified,
// and the attacker's address joins the BadGuys blacklist so follow-up
// requests with unknown signatures are blocked too.
func TestPaperSection72Scenario(t *testing.T) {
	h := newHarness(t)
	const local = `
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi*
rr_cond_notify local on:failure/sysadmin/info:cgiexploit
rr_cond_update_log local on:failure/BadGuys/info:IP
pos_access_right apache *
`
	const system = `
eacl_mode narrow
neg_access_right * *
pre_cond_accessid_GROUP local BadGuys
`
	sysE, err := eacl.ParseString(system)
	if err != nil {
		t.Fatal(err)
	}
	locE, err := eacl.ParseString(local)
	if err != nil {
		t.Fatal(err)
	}
	policy := gaa.NewPolicy("/cgi-bin/phf", []*eacl.EACL{sysE}, []*eacl.EACL{locE})

	attack := gaa.NewRequest("apache", "GET /cgi-bin/phf", params("10.0.0.66", "GET /cgi-bin/phf?Q=/etc/passwd")...)
	ans, err := h.api.CheckAuthorization(context.Background(), policy, attack)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Decision != gaa.No {
		t.Fatalf("phf attack decision = %v, want no", ans.Decision)
	}
	if h.mailbox.Count() != 1 {
		t.Errorf("notifications = %d, want 1", h.mailbox.Count())
	} else if msg := h.mailbox.Messages()[0]; msg.Tag != "cgiexploit" || msg.To != "sysadmin" {
		t.Errorf("notification = %+v", msg)
	}
	if !h.groups.Contains("BadGuys", "10.0.0.66") {
		t.Error("attacker not added to BadGuys")
	}

	// Follow-up probe from the same host with an unknown signature is
	// blocked by the system-wide blacklist (paper: "subsequent requests
	// from that host ... can still be blocked").
	followup := gaa.NewRequest("apache", "GET /cgi-bin/unknown-probe",
		params("10.0.0.66", "GET /cgi-bin/unknown-probe")...)
	ans2, err := h.api.CheckAuthorization(context.Background(), policy, followup)
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Decision != gaa.No {
		t.Errorf("follow-up decision = %v, want no (blacklisted)", ans2.Decision)
	}

	// A clean client is unaffected.
	clean := gaa.NewRequest("apache", "GET /index.html", params("10.0.0.1", "GET /index.html")...)
	ans3, err := h.api.CheckAuthorization(context.Background(), policy, clean)
	if err != nil {
		t.Fatal(err)
	}
	if ans3.Decision != gaa.Yes {
		t.Errorf("clean request decision = %v, want yes", ans3.Decision)
	}
	if h.mailbox.Count() != 1 {
		t.Errorf("notifications after clean request = %d, want still 1", h.mailbox.Count())
	}
}

func TestNotifyTriggerFiltering(t *testing.T) {
	h := newHarness(t)
	// Granted request: on:failure notify must not fire.
	h.check(t, "pos_access_right apache *\nrr_cond_notify local on:failure/sysadmin/info:x\n",
		params("1.2.3.4", "GET /")...)
	if h.mailbox.Count() != 0 {
		t.Errorf("on:failure fired on success: %d messages", h.mailbox.Count())
	}
	// on:success fires.
	h.check(t, "pos_access_right apache *\nrr_cond_notify local on:success/ops/info:ok\n",
		params("1.2.3.4", "GET /")...)
	if h.mailbox.Count() != 1 {
		t.Errorf("on:success messages = %d, want 1", h.mailbox.Count())
	}
	// on:any fires regardless.
	h.check(t, "neg_access_right apache *\nrr_cond_notify local on:any/ops/info:always\n",
		params("1.2.3.4", "GET /")...)
	if h.mailbox.Count() != 2 {
		t.Errorf("on:any messages = %d, want 2", h.mailbox.Count())
	}
	// Default recipient when omitted.
	h.check(t, "pos_access_right apache *\nrr_cond_notify local on:success/info:tagonly\n")
	msgs := h.mailbox.Messages()
	if msgs[len(msgs)-1].To != "sysadmin" {
		t.Errorf("default recipient = %q, want sysadmin", msgs[len(msgs)-1].To)
	}
	// Bad trigger is unevaluable.
	ans := h.check(t, "pos_access_right apache *\nrr_cond_notify local on:sometimes/x\n")
	if ans.Decision != gaa.Maybe {
		t.Errorf("bad trigger decision = %v, want maybe", ans.Decision)
	}
}

func TestUpdateLogUserKey(t *testing.T) {
	h := newHarness(t)
	h.check(t, "neg_access_right apache *\nrr_cond_update_log local on:failure/Suspects/info:USER\n",
		gaa.Param{Type: gaa.ParamUser, Authority: gaa.AuthorityAny, Value: "mallory"})
	if !h.groups.Contains("Suspects", "mallory") {
		t.Error("user identity not recorded in group")
	}
	// Missing group name is unevaluable; the denial itself stands
	// (Conjoin(No, Maybe) = No) and no group is touched.
	ans := h.check(t, "neg_access_right apache *\nrr_cond_update_log local on:failure/info:IP\n",
		params("9.9.9.9", "GET /")...)
	if ans.Decision != gaa.No {
		t.Errorf("missing group decision = %v, want no (denial preserved)", ans.Decision)
	}
	if len(h.groups.Groups()) != 1 { // only Suspects from above
		t.Errorf("groups = %v, want no new group", h.groups.Groups())
	}
	// Missing parameter is unevaluable; nothing is recorded.
	h.check(t, "neg_access_right apache *\nrr_cond_update_log local on:failure/G/info:IP\n")
	if h.groups.Len("G") != 0 {
		t.Errorf("group G = %v, want empty", h.groups.Members("G"))
	}
}

func TestAuditAction(t *testing.T) {
	h := newHarness(t)
	h.check(t, "neg_access_right apache *\nrr_cond_audit local on:any/info:probe\n",
		append(params("10.0.0.5", "GET /secret"),
			gaa.Param{Type: gaa.ParamObject, Authority: gaa.AuthorityAny, Value: "/secret"},
			gaa.Param{Type: gaa.ParamUser, Authority: gaa.AuthorityAny, Value: "eve"})...)
	recs := h.ring.Records()
	if len(recs) != 1 {
		t.Fatalf("audit records = %d, want 1", len(recs))
	}
	r := recs[0]
	if r.Decision != "no" || r.ClientIP != "10.0.0.5" || r.User != "eve" ||
		r.Info != "probe" || r.Object != "/secret" || r.Kind != "authorization" {
		t.Errorf("record = %+v", r)
	}
	if r.Right == "" {
		t.Error("record missing requested right")
	}
}

// TestAuditRightFromLabel: the record names the requested right the
// same whether the request carries its label, which the record then
// keeps, or a label for something else, or none.
func TestAuditRightFromLabel(t *testing.T) {
	e, err := eacl.ParseString("neg_access_right apache *\nrr_cond_audit local on:any/info:probe\n")
	if err != nil {
		t.Fatal(err)
	}
	p := gaa.NewPolicy("/x", nil, []*eacl.EACL{e})
	for _, label := range []string{"apache GET /x", "", "apache HEAD /x"} {
		h := newHarness(t)
		req := gaa.NewRequest("apache", "GET /x", params("10.0.0.5", "GET /x")...)
		req.Label = label
		if _, err := h.api.CheckAuthorization(context.Background(), p, req); err != nil {
			t.Fatalf("CheckAuthorization: %v", err)
		}
		if recs := h.ring.Records(); len(recs) != 1 || recs[0].Right != "apache GET /x" {
			t.Errorf("label %q: records %+v, want one naming right %q", label, recs, "apache GET /x")
		}
	}
}

func TestSetThreatLevelAction(t *testing.T) {
	h := newHarness(t)
	h.check(t, "neg_access_right apache *\nrr_cond_set_threat_level local on:failure/high\n")
	if h.threat.Level() != ids.High {
		t.Errorf("threat level = %v, want high", h.threat.Level())
	}
	// Escalate never lowers.
	h.check(t, "neg_access_right apache *\nrr_cond_set_threat_level local on:failure/low\n")
	if h.threat.Level() != ids.High {
		t.Errorf("threat level = %v, want still high", h.threat.Level())
	}
	// Unknown or missing levels are unevaluable: the denial stands and
	// the level is untouched. Verify via a fresh harness at Low.
	h2 := newHarness(t)
	h2.check(t, "neg_access_right apache *\nrr_cond_set_threat_level local on:failure/extreme\n")
	h2.check(t, "neg_access_right apache *\nrr_cond_set_threat_level local on:failure\n")
	if h2.threat.Level() != ids.Low {
		t.Errorf("threat level = %v, want untouched low", h2.threat.Level())
	}
}

func TestBlockIPAction(t *testing.T) {
	h := newHarness(t)
	h.check(t, "neg_access_right apache *\nrr_cond_block_ip local on:failure/duration:10m\n",
		params("10.0.0.99", "GET /evil")...)
	if !h.blocks.Blocked("10.0.0.99") {
		t.Error("client not blocked")
	}
	// Permanent block without duration.
	h.check(t, "neg_access_right apache *\nrr_cond_block_ip local on:failure\n",
		params("10.0.0.100", "GET /evil")...)
	if !h.blocks.Blocked("10.0.0.100") {
		t.Error("client not permanently blocked")
	}
	// Bad duration is unevaluable: no block is installed.
	h.check(t, "neg_access_right apache *\nrr_cond_block_ip local on:failure/duration:soon\n",
		params("10.0.0.101", "GET /")...)
	if h.blocks.Blocked("10.0.0.101") {
		t.Error("client blocked despite malformed duration")
	}
}

// TestFailedLoginLockout pairs rr_cond_count with pre_cond_threshold:
// after three failed logins within the window the client is denied even
// with correct credentials — the paper's password-guessing defence.
func TestFailedLoginLockout(t *testing.T) {
	h := newHarness(t)
	const policy = `
neg_access_right sshd login
pre_cond_threshold local counter=failed_login key=client_ip max=3 window=60s
pos_access_right sshd login
pre_cond_accessid_USER sshd *
rr_cond_count local on:failure/failed_login
`
	e, err := eacl.ParseString(policy)
	if err != nil {
		t.Fatal(err)
	}
	p := gaa.NewPolicy("login", nil, []*eacl.EACL{e})
	attempt := func(user string) gaa.Decision {
		t.Helper()
		ps := []gaa.Param{{Type: gaa.ParamClientIP, Authority: gaa.AuthorityAny, Value: "10.0.0.7"}}
		if user != "" {
			ps = append(ps, gaa.Param{Type: gaa.ParamUser, Authority: gaa.AuthorityAny, Value: user})
		}
		req := gaa.NewRequest("sshd", "login", ps...)
		ans, err := h.api.CheckAuthorization(context.Background(), p, req)
		if err != nil {
			t.Fatal(err)
		}
		return ans.Decision
	}

	// Three failed (unauthenticated) attempts.
	for i := 0; i < 3; i++ {
		if got := attempt(""); got != gaa.No {
			t.Fatalf("failed attempt %d decision = %v, want no", i, got)
		}
	}
	// Now even a valid login is locked out by the threshold entry.
	if got := attempt("alice"); got != gaa.No {
		t.Errorf("post-lockout valid login = %v, want no", got)
	}
}

func TestCountActionKeyOverride(t *testing.T) {
	h := newHarness(t)
	h.check(t, "neg_access_right apache *\nrr_cond_count local on:failure/bad_user/key:accessid_USER\n",
		gaa.Param{Type: gaa.ParamUser, Authority: gaa.AuthorityAny, Value: "mallory"})
	if n := h.counters.CountSince(conditions.CounterKey("bad_user", "mallory"), time.Minute); n != 1 {
		t.Errorf("count = %d, want 1", n)
	}
	// Missing counter name is unevaluable: nothing recorded.
	h.check(t, "neg_access_right apache *\nrr_cond_count local on:failure\n",
		params("1.1.1.1", "GET /")...)
	if n := h.counters.CountSince(conditions.CounterKey("", "1.1.1.1"), time.Minute); n != 0 {
		t.Errorf("phantom count = %d", n)
	}
}

func TestActionsUnconfiguredAreMaybe(t *testing.T) {
	api := gaa.New()
	Register(api, Deps{})
	for _, line := range []string{
		"rr_cond_notify local on:any/x/info:t",
		"rr_cond_update_log local on:any/G/info:IP",
		"rr_cond_audit local on:any/info:t",
		"rr_cond_set_threat_level local on:any/high",
		"rr_cond_block_ip local on:any",
		"rr_cond_count local on:any/c",
	} {
		e, err := eacl.ParseString("pos_access_right apache *\n" + line + "\n")
		if err != nil {
			t.Fatal(err)
		}
		p := gaa.NewPolicy("/x", nil, []*eacl.EACL{e})
		ans, err := api.CheckAuthorization(context.Background(), p, gaa.NewRequest("apache", "GET /x"))
		if err != nil {
			t.Fatal(err)
		}
		if ans.Decision != gaa.Maybe {
			t.Errorf("%q with nil deps: %v, want maybe", line, ans.Decision)
		}
	}
}

func TestPostConditionTriggersOnOperationStatus(t *testing.T) {
	h := newHarness(t)
	e, err := eacl.ParseString(`
pos_access_right apache *
post_cond_notify local on:failure/sysadmin/info:opfailed
`)
	if err != nil {
		t.Fatal(err)
	}
	p := gaa.NewPolicy("/x", nil, []*eacl.EACL{e})
	req := gaa.NewRequest("apache", "GET /x", params("1.2.3.4", "GET /x")...)
	ans, err := h.api.CheckAuthorization(context.Background(), p, req)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Decision != gaa.Yes {
		t.Fatalf("decision = %v, want yes", ans.Decision)
	}
	// Operation succeeded: on:failure post-condition stays quiet.
	if dec, _ := h.api.PostExecutionActions(context.Background(), ans, req, gaa.Yes); dec != gaa.Yes {
		t.Errorf("post decision = %v", dec)
	}
	if h.mailbox.Count() != 0 {
		t.Errorf("messages after successful op = %d, want 0", h.mailbox.Count())
	}
	// Operation failed: it fires, even though the REQUEST was granted.
	if dec, _ := h.api.PostExecutionActions(context.Background(), ans, req, gaa.No); dec != gaa.Yes {
		t.Errorf("post decision = %v", dec)
	}
	if h.mailbox.Count() != 1 {
		t.Errorf("messages after failed op = %d, want 1", h.mailbox.Count())
	}
}

func TestParseValueDefaultsToAny(t *testing.T) {
	value := func(v string) eacl.Condition { return eacl.Condition{Block: eacl.BlockRequestResult, Value: v} }
	split := func(a args) (out []string) {
		for arg, rest := a.next(); arg != ""; arg, rest = rest.next() {
			out = append(out, arg)
		}
		return out
	}
	for _, status := range []gaa.Decision{gaa.Yes, gaa.No, gaa.Maybe} {
		args, fires, err := parseValue(value("justarg/info:x"), &gaa.Request{Decision: status})
		if err != nil || !fires {
			t.Errorf("status %v: parseValue = %v, %v, %v", status, args, fires, err)
		}
		if got := split(args); len(got) != 2 {
			t.Errorf("args = %q", got)
		}
		if first, _ := args.positional(); first != "justarg" || args.info() != "x" {
			t.Errorf("positional = %q, info = %q; want justarg and x", first, args.info())
		}
	}
	// Empty segments dropped.
	sparse, _, err := parseValue(value("on:any//x/"), &gaa.Request{})
	if got := split(sparse); err != nil || len(got) != 1 || got[0] != "x" {
		t.Errorf("args = %q, err=%v", got, err)
	}
	// A trigger that stays quiet parses no arguments; an unknown one is
	// an error whether or not it would have fired.
	if args, fires, err := parseValue(value("on:failure/a/b"), &gaa.Request{Decision: gaa.Yes}); err != nil || fires || args != "" {
		t.Errorf("quiet trigger: %q, %v, %v", args, fires, err)
	}
	if _, _, err := parseValue(value("on:sometimes/a"), &gaa.Request{Decision: gaa.Yes}); err == nil {
		t.Error("unknown trigger accepted")
	}
	// The tag is the last info: argument; positional ones skip them all.
	a := args("info:a/info:b/one/info:c/two")
	if first, rest := a.positional(); a.info() != "c" || first != "one" || fmt.Sprint(split(rest)) != "[info:c two]" {
		t.Errorf("info = %q, positional = %q, %q", a.info(), first, split(rest))
	}
}

// TestNotifyMessageMatchesSprintf holds the alert the notify action
// builds with appends to the two Sprintfs it replaced, on URIs that
// leave gaa.AppendQuoted's fast path.
func TestNotifyMessageMatchesSprintf(t *testing.T) {
	at := time.Date(2003, 5, 19, 12, 0, 0, 0, time.FixedZone("PST", -8*3600))
	mailbox := notify.NewMailbox(0)
	ev, ok := Builtin("notify", Deps{Notifier: mailbox}, func() time.Time { return at })
	if !ok {
		t.Fatal("no notify action")
	}
	cond := eacl.Condition{Block: eacl.BlockRequestResult, Type: "notify", DefAuth: "local", Value: "on:failure/sysadmin/info:cgiexploit"}
	for i, uri := range []string{
		"GET /cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd",
		`GET /a"b`,
		`GET /a\b\\c`,
		"GET /tab\there\x00nul\x7fdel\r\n",
		"GET /bad\xff\xfeutf8\xc3",
		"GET /café/日本語/\U0001f600",
		"",
		"POST /" + strings.Repeat("A", 1200),
	} {
		req := gaa.NewRequest("apache", "GET /x", params("10.0.0.66", uri)...)
		req.Decision = gaa.No
		if out := ev.Evaluate(context.Background(), cond, req); out.Result != gaa.Yes {
			t.Fatalf("notify(%q) = %+v", uri, out)
		}
		msg := mailbox.Messages()[i]
		wantBody := fmt.Sprintf("time=%s ip=%s uri=%q decision=%s threat=%s",
			at.Format(time.RFC3339), "10.0.0.66", uri, gaa.No, "cgiexploit")
		if msg.Subject != "GAA alert: cgiexploit" || msg.Body != wantBody {
			t.Errorf("message = %q / %q\n   want body %q", msg.Subject, msg.Body, wantBody)
		}
	}
	// Over the cap the quote stops at audit.MaxField bytes, on a rune
	// boundary (the 3-byte 日 straddles it), and says what it left out.
	head := "GET /" + strings.Repeat("A", audit.MaxField-6)
	uri := head + "日" + strings.Repeat("B", 10000)
	req := gaa.NewRequest("apache", "GET /x", params("10.0.0.66", uri)...)
	req.Decision = gaa.No
	if out := ev.Evaluate(context.Background(), cond, req); out.Result != gaa.Yes {
		t.Fatalf("notify(long) = %+v", out)
	}
	msgs := mailbox.Messages()
	wantBody := fmt.Sprintf("time=%s ip=%s uri=%q…(+%d bytes) decision=%s threat=%s",
		at.Format(time.RFC3339), "10.0.0.66", head, len(uri)-len(head), gaa.No, "cgiexploit")
	if got := msgs[len(msgs)-1].Body; got != wantBody {
		t.Errorf("long-URI body (%d bytes) = ...%q\n   want (%d bytes) ...%q", len(got), got[len(got)-60:], len(wantBody), wantBody[len(wantBody)-60:])
	}
}

// TestNotifyReadsClockOnce: the message's Time and the body's time= are
// one reading, even on a clock that moves a second per call.
func TestNotifyReadsClockOnce(t *testing.T) {
	at := time.Date(2003, 5, 19, 12, 0, 0, 0, time.UTC)
	mailbox := notify.NewMailbox(0)
	ev, _ := Builtin("notify", Deps{Notifier: mailbox}, func() time.Time {
		at = at.Add(time.Second)
		return at
	})
	cond := eacl.Condition{Block: eacl.BlockRequestResult, Type: "notify", DefAuth: "local", Value: "on:failure/sysadmin/info:cgiexploit"}
	req := gaa.NewRequest("apache", "GET /x", params("10.0.0.66", "GET /cgi-bin/phf")...)
	req.Decision = gaa.No
	if out := ev.Evaluate(context.Background(), cond, req); out.Result != gaa.Yes {
		t.Fatalf("notify = %+v", out)
	}
	msg := mailbox.Messages()[0]
	if want := "time=" + msg.Time.Format(time.RFC3339) + " "; !strings.HasPrefix(msg.Body, want) {
		t.Errorf("body %q, want it to start %q (Message.Time)", msg.Body, want)
	}
}
