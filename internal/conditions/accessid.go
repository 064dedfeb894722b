package conditions

import (
	"context"
	"fmt"
	"strings"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
)

// The accessid value languages have no malformed values — a list of
// globs is a strings.Fields, a group is a name — so their tests are
// built, not parsed, and ValidateValue has nothing to say about them.

// globList is a USER or HOST value.
type globList []string

// admits reports whether subject matches one of the globs.
func (l globList) admits(subject string) bool {
	for _, want := range l {
		if eacl.Glob(want, subject) {
			return true
		}
	}
	return false
}

// userEvaluator implements pre_cond_accessid_USER: the requester must
// be an authenticated user matching the condition value ("*" means any
// authenticated user, as in the paper's section 7.1 local policy). It
// is a requirement: failure denies with an authentication challenge, so
// the web server can answer HTTP_AUTHREQUIRED.
type userEvaluator struct{}

// userTest is a user list; challenge is set only when hoisted, where
// it is formatted once (Evaluate formats it on the failures that
// carry it).
type userTest struct {
	defAuth   string
	patterns  globList
	challenge string
}

func realmChallenge(defAuth string) string { return fmt.Sprintf("Basic realm=%q", defAuth) }

// match returns the authenticated user ("" when there is none) and
// whether the list admits them.
func (t userTest) match(req *gaa.Request) (string, bool) {
	user, _ := req.Params.Get(gaa.ParamUser, t.defAuth)
	return user, user != "" && t.patterns.admits(user)
}

func (t userTest) EvalCompiled(req *gaa.Request) gaa.CondVerdict {
	if _, ok := t.match(req); ok {
		return gaa.CondYes | gaa.CondRequirement
	}
	return gaa.CondNo | gaa.CondRequirement | gaa.CondChallenge
}

// Challenge implements gaa.CompiledCond.
func (t userTest) Challenge() string { return t.challenge }

// CompileCond implements gaa.CondCompiler.
func (userEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	return userTest{
		defAuth:   cond.DefAuth,
		patterns:  strings.Fields(cond.Value),
		challenge: realmChallenge(cond.DefAuth),
	}, true
}

func (userEvaluator) Evaluate(_ context.Context, cond eacl.Condition, req *gaa.Request) gaa.Outcome {
	user, ok := userTest{defAuth: cond.DefAuth, patterns: strings.Fields(cond.Value)}.match(req)
	if ok {
		return gaa.MetOutcome(gaa.ClassRequirement, "user "+user)
	}
	detail := "no authenticated user"
	if user != "" {
		detail = "user not in list"
		if req.Trace {
			detail = fmt.Sprintf("user %q not in %q", user, cond.Value)
		}
	}
	return gaa.Outcome{
		Result:    gaa.No,
		Class:     gaa.ClassRequirement,
		Challenge: realmChallenge(cond.DefAuth),
		Detail:    detail,
	}
}

// groupEvaluator implements pre_cond_accessid_GROUP: membership of the
// requester's group key (client address by default, or the
// authenticated user) in a named group — the section 7.2 BadGuys
// blacklist check. It is a selector: a non-member simply makes the
// entry inapplicable.
type groupEvaluator struct {
	store *groups.Store
}

// groupTest is a group name and the store holding it. The lookup stays
// per request (membership is live adaptive state — the section 7.2
// BadGuys blacklist grows under attack).
type groupTest struct {
	gaa.NoChallenge
	store   *groups.Store
	defAuth string
	group   string
}

// match returns the first of the requester's identities that is a
// member of the group. The group key is the identity checked against
// the member list: the explicit group_key parameter, else the
// authenticated user, else the client address ("reading a log file of
// the suspicious IP addresses and trying to find an IP address that
// matches", paper section 7.2).
func (t groupTest) match(req *gaa.Request) (string, bool) {
	for _, paramType := range [...]string{gaa.ParamGroupKey, gaa.ParamUser, gaa.ParamClientIP} {
		key, ok := req.Params.Get(paramType, t.defAuth)
		if ok && key != "" && t.store.Contains(t.group, key) {
			return key, true
		}
	}
	return "", false
}

func (t groupTest) EvalCompiled(req *gaa.Request) gaa.CondVerdict {
	_, ok := t.match(req)
	return selector(ok)
}

func (e groupEvaluator) test(cond eacl.Condition) groupTest {
	return groupTest{store: e.store, defAuth: cond.DefAuth, group: strings.TrimSpace(cond.Value)}
}

// CompileCond implements gaa.CondCompiler, refusing the two conditions
// Evaluate leaves unevaluated whatever the request.
func (e groupEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	t := e.test(cond)
	if t.store == nil || t.group == "" {
		return nil, false
	}
	return t, true
}

func (e groupEvaluator) Evaluate(_ context.Context, cond eacl.Condition, req *gaa.Request) gaa.Outcome {
	t := e.test(cond)
	if t.store == nil {
		return gaa.UnevaluatedOutcome("no group store configured")
	}
	if t.group == "" {
		return gaa.UnevaluatedOutcome("empty group name")
	}
	key, ok := t.match(req)
	if !ok {
		return gaa.FailedOutcome(gaa.ClassSelector, "not a member of "+t.group)
	}
	if req.Trace {
		return gaa.MetOutcome(gaa.ClassSelector, fmt.Sprintf("%s in group %s", key, t.group))
	}
	return gaa.MetOutcome(gaa.ClassSelector, "member of "+t.group)
}

// hostEvaluator implements pre_cond_accessid_HOST: the client host
// (name or address) must glob-match one of the condition patterns. It
// is a selector.
type hostEvaluator struct{}

// hostTest is a host list.
type hostTest struct {
	gaa.NoChallenge
	defAuth  string
	patterns globList
}

// match returns the client host, falling back to the client address
// ("" when the request carries neither), and whether the list admits it.
func (t hostTest) match(req *gaa.Request) (string, bool) {
	host, _ := req.Params.Get(gaa.ParamClientHost, t.defAuth)
	if host == "" {
		host, _ = req.Params.Get(gaa.ParamClientIP, t.defAuth)
	}
	return host, host != "" && t.patterns.admits(host)
}

func (t hostTest) EvalCompiled(req *gaa.Request) gaa.CondVerdict {
	host, ok := t.match(req)
	if host == "" {
		return gaa.CondMaybe
	}
	return selector(ok)
}

// CompileCond implements gaa.CondCompiler.
func (hostEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	return hostTest{defAuth: cond.DefAuth, patterns: strings.Fields(cond.Value)}, true
}

func (hostEvaluator) Evaluate(_ context.Context, cond eacl.Condition, req *gaa.Request) gaa.Outcome {
	host, ok := hostTest{defAuth: cond.DefAuth, patterns: strings.Fields(cond.Value)}.match(req)
	switch {
	case host == "":
		return gaa.UnevaluatedOutcome("no client host parameter")
	case ok:
		return gaa.MetOutcome(gaa.ClassSelector, "host "+host)
	case req.Trace:
		return gaa.FailedOutcome(gaa.ClassSelector, fmt.Sprintf("host %q does not match %q", host, cond.Value))
	default:
		return gaa.FailedOutcome(gaa.ClassSelector, "host not in list")
	}
}
