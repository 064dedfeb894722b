package gaa

import (
	"context"
	"strings"
	"sync"
	"testing"

	"gaaapi/internal/eacl"
)

// actionLog records action-condition activations for assertions.
type actionLog struct {
	mu      sync.Mutex
	entries []string
}

func (l *actionLog) add(s string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, s)
}

func (l *actionLog) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.entries...)
}

// newTestAPI returns an API with synthetic condition evaluators:
//
//	sel_yes / sel_no            — selectors that always pass/fail
//	req_yes / req_no            — requirements; req_no carries a challenge
//	maybe                       — deliberately unevaluated
//	param_is <type>=<value>     — selector matching a request parameter
//	record <tag>                — action appending "<tag>:<decision>" to log;
//	                              "on:failure/<tag>" only when decision != Yes,
//	                              "on:success/<tag>" only when decision == Yes
//	erroring                    — evaluator returning an error
func newTestAPI(t *testing.T) (*API, *actionLog) {
	t.Helper()
	log := &actionLog{}
	a := New()
	a.RegisterFunc("sel_yes", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return MetOutcome(ClassSelector, "sel_yes")
	})
	a.RegisterFunc("sel_no", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return FailedOutcome(ClassSelector, "sel_no")
	})
	a.RegisterFunc("req_yes", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return MetOutcome(ClassRequirement, "req_yes")
	})
	a.RegisterFunc("req_no", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return Outcome{Result: No, Class: ClassRequirement, Challenge: `Basic realm="test"`, Detail: "req_no"}
	})
	a.RegisterFunc("maybe", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return UnevaluatedOutcome("deliberately unevaluated")
	})
	a.RegisterFunc("param_is", AuthorityAny, func(_ context.Context, c eacl.Condition, r *Request) Outcome {
		typ, want, ok := strings.Cut(c.Value, "=")
		if !ok {
			return Outcome{Result: No, Err: errMalformed, Detail: "want type=value"}
		}
		got, found := r.Params.Get(typ, c.DefAuth)
		if found && got == want {
			return MetOutcome(ClassSelector, "param matches")
		}
		return FailedOutcome(ClassSelector, "param mismatch")
	})
	a.RegisterFunc("record", AuthorityAny, func(_ context.Context, c eacl.Condition, r *Request) Outcome {
		tag := c.Value
		if rest, ok := strings.CutPrefix(tag, "on:failure/"); ok {
			if r.Decision == Yes {
				return MetOutcome(ClassAction, "trigger not matched")
			}
			tag = rest
		} else if rest, ok := strings.CutPrefix(tag, "on:success/"); ok {
			if r.Decision != Yes {
				return MetOutcome(ClassAction, "trigger not matched")
			}
			tag = rest
		}
		log.add(tag + ":" + r.Decision.String())
		return MetOutcome(ClassAction, "recorded")
	})
	a.RegisterFunc("erroring", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return Outcome{Result: Yes, Err: errBoom}
	})
	return a, log
}

var (
	errMalformed = &testError{"malformed condition"}
	errBoom      = &testError{"boom"}
)

type testError struct{ msg string }

func (e *testError) Error() string { return e.msg }

func mustEACL(t *testing.T, src string) *eacl.EACL {
	t.Helper()
	e, err := eacl.ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return e
}

func simpleRequest(params ...Param) *Request {
	return NewRequest("apache", "GET /index.html", params...)
}

func checkAuth(t *testing.T, a *API, p *Policy, req *Request) *Answer {
	t.Helper()
	ans, err := a.CheckAuthorization(context.Background(), p, req)
	if err != nil {
		t.Fatalf("CheckAuthorization: %v", err)
	}
	return ans
}
