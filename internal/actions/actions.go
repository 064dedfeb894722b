package actions

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"gaaapi/internal/audit"
	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
	"gaaapi/internal/netblock"
	"gaaapi/internal/notify"
	"gaaapi/internal/retry"
)

// Deps carries the services the action evaluators drive. Nil fields
// disable the corresponding actions (they evaluate to MAYBE, exactly
// like an unregistered routine).
type Deps struct {
	// Notifier delivers rr_cond_notify / post_cond_notify messages.
	Notifier notify.Notifier
	// Groups backs rr_cond_update_log blacklist appends.
	Groups *groups.Store
	// Audit receives rr_cond_audit / post_cond_audit records.
	Audit audit.Logger
	// Threat is escalated by rr_cond_set_threat_level.
	Threat *ids.Manager
	// Blocks receives rr_cond_block_ip firewall entries.
	Blocks *netblock.Set
	// Counters receives rr_cond_count events (paired with
	// pre_cond_threshold).
	Counters *conditions.Counters
	// Spoof, when non-nil, is consulted before source-keyed
	// countermeasures (update_log, block_ip): a spoof-suspected
	// address is never blacklisted or firewalled, so an attacker
	// cannot stage a denial of service by impersonating a host
	// (paper sections 1 and 3).
	Spoof ids.NetworkIDS
	// Retry bounds re-attempts of side-effecting deliveries (notify,
	// audit) when the backing service errors transiently. The zero
	// value means a single attempt (current behaviour). Deployments
	// whose Notifier is already a notify.Reliable should leave this
	// zero to avoid nested retries.
	Retry retry.Policy
}

// Builtin returns the built-in action evaluator registered under name.
// clock supplies timestamps for notifications and audit records (pass
// api.Now).
func Builtin(name string, deps Deps, clock func() time.Time) (gaa.Evaluator, bool) {
	switch name {
	case "notify":
		return notifyAction{n: deps.Notifier, clock: clock, retry: deps.Retry}, true
	case "update_log":
		return updateLogAction{store: deps.Groups, spoof: deps.Spoof}, true
	case "audit":
		return auditAction{log: deps.Audit, clock: clock, retry: deps.Retry}, true
	case "set_threat_level":
		return threatAction{mgr: deps.Threat}, true
	case "block_ip":
		return blockAction{set: deps.Blocks, spoof: deps.Spoof}, true
	case "count":
		return countAction{counters: deps.Counters}, true
	default:
		return nil, false
	}
}

// Names lists the built-in action evaluator names.
func Names() []string {
	return []string{"notify", "update_log", "audit", "set_threat_level", "block_ip", "count"}
}

// Register installs every action evaluator on api under the wildcard
// authority.
func Register(api *gaa.API, deps Deps) {
	for _, name := range Names() {
		ev, _ := Builtin(name, deps, api.Now)
		api.Register(name, gaa.AuthorityAny, ev)
	}
}

// notifyAction implements rr_cond_notify / post_cond_notify:
// "on:failure/sysadmin/info:cgiexploit" sends the recipient a message
// "reporting time, IP address, URL attempted and a threat type" (paper
// section 7.2).
type notifyAction struct {
	n     notify.Notifier
	clock func() time.Time
	retry retry.Policy
}

func (a notifyAction) Evaluate(ctx context.Context, cond eacl.Condition, req *gaa.Request) gaa.Outcome {
	if a.n == nil {
		return gaa.UnevaluatedOutcome("no notifier configured")
	}
	args, fires, err := parseValue(cond, req)
	if err != nil {
		return badValue(err)
	}
	if !fires {
		return skipped()
	}
	tag, rest := infoTag(args)
	recipient := "sysadmin"
	if len(rest) > 0 {
		recipient = rest[0]
	}
	ip, _ := req.Params.Get(gaa.ParamClientIP, cond.DefAuth)
	uri, _ := req.Params.Get(gaa.ParamRequestURI, cond.DefAuth)
	// One reading, so the message and its body name the same second.
	now := a.clock()
	msg := notify.Message{Time: now, To: recipient, Subject: "GAA alert: " + tag, Tag: tag}
	// time=%s ip=%s uri=%q decision=%s threat=%s, without fmt: the URI
	// of an overflow attempt is over a kilobyte. The quote stops at
	// audit.MaxField bytes and says how much it left out: an alert is
	// kept, and the request line is the attacker's to size.
	quoted := audit.Clip(uri)
	body := make([]byte, 0, 96+len(ip)+len(quoted)+len(tag))
	body = now.AppendFormat(append(body, "time="...), time.RFC3339)
	body = append(append(body, " ip="...), ip...)
	body = gaa.AppendQuoted(append(body, " uri="...), quoted)
	if cut := len(uri) - len(quoted); cut > 0 {
		body = append(strconv.AppendInt(append(body, "…(+"...), int64(cut), 10), " bytes)"...)
	}
	body = append(append(body, " decision="...), req.Decision.String()...)
	body = append(append(body, " threat="...), tag...)
	msg.Body = string(body)
	if _, err := retry.Do(ctx, a.retry, func(ctx context.Context) error {
		return a.n.Notify(ctx, msg)
	}); err != nil {
		// Paper section 6: the request-result outcome conjoins into the
		// authorization status, so a failed mandatory notification
		// fails the status.
		return gaa.Outcome{Result: gaa.No, Class: gaa.ClassAction, Err: err, Detail: "notification failed"}
	}
	return gaa.MetOutcome(gaa.ClassAction, "notified "+recipient)
}

// updateLogAction implements rr_cond_update_log:
// "on:failure/BadGuys/info:IP" appends the requester identity to a
// group — the paper's growing blacklist ("updates the group BadGuys to
// include new suspicious IP address from the request", section 7.2).
// info:IP selects the client address, info:USER the authenticated user.
type updateLogAction struct {
	store *groups.Store
	spoof ids.NetworkIDS
}

func (a updateLogAction) Evaluate(_ context.Context, cond eacl.Condition, req *gaa.Request) gaa.Outcome {
	if a.store == nil {
		return gaa.UnevaluatedOutcome("no group store configured")
	}
	args, fires, err := parseValue(cond, req)
	if err != nil {
		return badValue(err)
	}
	if !fires {
		return skipped()
	}
	tag, rest := infoTag(args)
	if len(rest) == 0 {
		return badValue(fmt.Errorf("update_log needs a group name: %q", cond.Value))
	}
	group := rest[0]
	paramType := gaa.ParamClientIP
	if strings.EqualFold(tag, "user") {
		paramType = gaa.ParamUser
	}
	member, ok := req.Params.Get(paramType, cond.DefAuth)
	if !ok || member == "" {
		return gaa.UnevaluatedOutcome("no " + paramType + " parameter to record")
	}
	if paramType == gaa.ParamClientIP && a.spoof != nil {
		if spoofed, conf := a.spoof.SpoofIndication(member); spoofed {
			return gaa.MetOutcome(gaa.ClassAction,
				fmt.Sprintf("skipped: %s suspected spoofed (confidence %.2f)", member, conf))
		}
	}
	a.store.Add(group, member)
	return gaa.MetOutcome(gaa.ClassAction, fmt.Sprintf("added %s to %s", member, group))
}

// auditAction implements rr_cond_audit / post_cond_audit:
// "on:any/info:<tag>" writes a structured audit record.
type auditAction struct {
	log   audit.Logger
	clock func() time.Time
	retry retry.Policy
}

func (a auditAction) Evaluate(ctx context.Context, cond eacl.Condition, req *gaa.Request) gaa.Outcome {
	if a.log == nil {
		return gaa.UnevaluatedOutcome("no audit logger configured")
	}
	args, fires, err := parseValue(cond, req)
	if err != nil {
		return badValue(err)
	}
	if !fires {
		return skipped()
	}
	tag, _ := infoTag(args)
	ip, _ := req.Params.Get(gaa.ParamClientIP, cond.DefAuth)
	user, _ := req.Params.Get(gaa.ParamUser, cond.DefAuth)
	object, _ := req.Params.Get(gaa.ParamObject, cond.DefAuth)
	var right string
	if len(req.Rights) > 0 {
		right = req.Rights[0].DefAuth + " " + req.Rights[0].Value
	}
	kind := "authorization"
	if cond.Block == eacl.BlockPost {
		kind = "post_execution"
	}
	rec := audit.Record{
		Time:     a.clock(),
		Kind:     kind,
		Object:   object,
		Right:    right,
		Decision: req.Decision.String(),
		ClientIP: ip,
		User:     user,
		Info:     tag,
	}
	if _, err := retry.Do(ctx, a.retry, func(context.Context) error {
		return a.log.Log(rec)
	}); err != nil {
		return gaa.Outcome{Result: gaa.No, Class: gaa.ClassAction, Err: err, Detail: "audit write failed"}
	}
	return gaa.MetOutcome(gaa.ClassAction, "audited")
}

// threatAction implements rr_cond_set_threat_level: "on:failure/high"
// escalates the system threat level — the paper's "modifying overall
// system protection" countermeasure.
type threatAction struct {
	mgr *ids.Manager
}

func (a threatAction) Evaluate(_ context.Context, cond eacl.Condition, req *gaa.Request) gaa.Outcome {
	if a.mgr == nil {
		return gaa.UnevaluatedOutcome("no threat manager configured")
	}
	args, fires, err := parseValue(cond, req)
	if err != nil {
		return badValue(err)
	}
	if !fires {
		return skipped()
	}
	_, rest := infoTag(args)
	if len(rest) == 0 {
		return badValue(fmt.Errorf("set_threat_level needs a level: %q", cond.Value))
	}
	level, err := ids.ParseLevel(rest[0])
	if err != nil {
		return badValue(err)
	}
	a.mgr.Escalate(level)
	return gaa.MetOutcome(gaa.ClassAction, "threat level escalated to "+level.String())
}

// blockAction implements rr_cond_block_ip:
// "on:failure/duration:10m" adds the client address to the firewall
// block set — "blocking connections from particular parts of the
// network" (paper section 1). Without a duration the block is
// permanent.
type blockAction struct {
	set   *netblock.Set
	spoof ids.NetworkIDS
}

func (a blockAction) Evaluate(_ context.Context, cond eacl.Condition, req *gaa.Request) gaa.Outcome {
	if a.set == nil {
		return gaa.UnevaluatedOutcome("no block set configured")
	}
	args, fires, err := parseValue(cond, req)
	if err != nil {
		return badValue(err)
	}
	if !fires {
		return skipped()
	}
	var dur time.Duration
	for _, arg := range args {
		if v, ok := strings.CutPrefix(arg, "duration:"); ok {
			d, err := time.ParseDuration(v)
			if err != nil {
				return badValue(fmt.Errorf("bad duration %q", v))
			}
			dur = d
		}
	}
	ip, ok := req.Params.Get(gaa.ParamClientIP, cond.DefAuth)
	if !ok || ip == "" {
		return gaa.UnevaluatedOutcome("no client address to block")
	}
	if a.spoof != nil {
		if spoofed, conf := a.spoof.SpoofIndication(ip); spoofed {
			return gaa.MetOutcome(gaa.ClassAction,
				fmt.Sprintf("skipped: %s suspected spoofed (confidence %.2f)", ip, conf))
		}
	}
	a.set.Block(ip, dur)
	return gaa.MetOutcome(gaa.ClassAction, "blocked "+ip)
}

// countAction implements rr_cond_count:
// "on:failure/failed_login/key:accessid_USER" records one event in the
// sliding-window counter store. Paired with pre_cond_threshold it
// realizes the paper's "number of failed login attempts within a given
// period of time" (section 3, item 4). The default key parameter is
// the client address.
type countAction struct {
	counters *conditions.Counters
}

func (a countAction) Evaluate(_ context.Context, cond eacl.Condition, req *gaa.Request) gaa.Outcome {
	if a.counters == nil {
		return gaa.UnevaluatedOutcome("no counter store configured")
	}
	args, fires, err := parseValue(cond, req)
	if err != nil {
		return badValue(err)
	}
	if !fires {
		return skipped()
	}
	_, rest := infoTag(args)
	if len(rest) == 0 {
		return badValue(fmt.Errorf("count needs a counter name: %q", cond.Value))
	}
	counter := rest[0]
	keyParam := gaa.ParamClientIP
	for _, arg := range rest[1:] {
		if v, ok := strings.CutPrefix(arg, "key:"); ok {
			keyParam = v
		}
	}
	keyValue, ok := req.Params.Get(keyParam, cond.DefAuth)
	if !ok || keyValue == "" {
		return gaa.UnevaluatedOutcome("no " + keyParam + " parameter to count")
	}
	a.counters.Add(conditions.CounterKey(counter, keyValue))
	return gaa.MetOutcome(gaa.ClassAction, "counted "+counter)
}
