package gaa

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"gaaapi/internal/eacl"
)

// memoPolicyText has one deny per signature right and a grant: a right
// under /cgi-bin/sigN is denied, anything else granted.
func memoPolicyText(signatures int) string {
	var b strings.Builder
	for i := 0; i < signatures; i++ {
		fmt.Fprintf(&b, "neg_access_right apache GET /cgi-bin/sig%d*\npre_cond_fastyes local\n", i)
	}
	b.WriteString("pos_access_right apache *\npre_cond_fastyes local\n")
	return b.String()
}

func newMemoAPI(opts ...Option) *API {
	a := New(opts...)
	var comp, interp atomic.Int64
	a.Register("fastyes", AuthorityAny, fastEval{out: MetOutcome(ClassSelector, "yes"), compiled: &comp, interp: &interp})
	return a
}

// walkBits is what the tries say about one right over every unit of p,
// laid out as the memo lays them out.
func walkBits(a *API, p *Policy, right eacl.Right) []uint64 {
	var cs compiledScratch
	var out []uint64
	for _, level := range [2][]*eacl.EACL{p.System, p.Local} {
		for _, e := range level {
			cs.matchRights(a.compiledFor(e), []eacl.Right{right})
			out = append(out, cs.entryBits...)
		}
	}
	return out
}

// TestCompiledRightsMemoStates walks one policy's memo through its
// life: the first single right fills it, and neither another right nor
// a multi-right request overwrites it; a registration recompiles the
// units and the memo's bits still hold; a policy whose bitsets exceed
// the memo never memoizes.
func TestCompiledRightsMemoStates(t *testing.T) {
	a := newMemoAPI()
	p := NewPolicy("/index.html", nil, []*eacl.EACL{mustEACL(t, memoPolicyText(3))})
	deny, grant := "GET /cgi-bin/sig1/x", "GET /index.html"
	check := func(want Decision, values ...string) {
		t.Helper()
		req := NewRequest("apache", values[0])
		for _, v := range values[1:] {
			req.Rights = append(req.Rights, eacl.Right{Sign: eacl.Pos, DefAuth: "apache", Value: v})
		}
		if ans := checkAuth(t, a, p, req); ans.Decision != want {
			t.Fatalf("%q: decision %v, want %v", values, ans.Decision, want)
		}
	}
	memo := func(wantState uint32, wantValue string) {
		t.Helper()
		if st := p.rights.state.Load(); st != wantState || st == memoReady && p.rights.label() != "apache "+wantValue {
			t.Fatalf("memo state %d for %q, want %d for %q", st, p.rights.label(), wantState, wantValue)
		}
	}

	check(No, deny, grant) // two rights: walked, not remembered
	memo(memoEmpty, "")
	check(No, deny)
	memo(memoReady, deny)
	if got, want := p.rights.bits[:1], walkBits(a, p, eacl.Right{DefAuth: "apache", Value: deny}); !slices.Equal(got, want) {
		t.Fatalf("memo bits %b, the tries say %b", got, want)
	}
	for i := 0; i < 3; i++ {
		check(No, deny)
		check(Yes, grant)
		check(No, grant, deny)
	}
	memo(memoReady, deny)

	a.RegisterFunc("unused", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome { return Outcome{} })
	before := a.CompileStats().Programs
	check(No, deny)
	check(Yes, grant)
	if a.CompileStats().Programs == before {
		t.Fatal("a registration did not recompile the unit")
	}
	memo(memoReady, deny)

	// A policy whose bitsets exceed the memo keeps a label, but no scan
	// takes the memo to fill it.
	big := NewPolicy("/index.html", nil, []*eacl.EACL{mustEACL(t, memoPolicyText(64*rightsMemoWords))})
	for i, want := range []uint32{memoEmpty, memoLabelled} {
		if i > 0 {
			big.RightLabel("apache", "GET", "/index.html")
		}
		if ans := checkAuth(t, a, big, simpleRequest()); ans.Decision != Yes {
			t.Fatalf("oversized policy: decision %v, want yes", ans.Decision)
		}
		if st := big.rights.state.Load(); st != want {
			t.Fatalf("oversized policy's memo state %d, want %d", st, want)
		}
	}
}

// TestPolicyRightLabel: the first RightLabel of an empty memo writes
// its label into the memo's bytes, and later calls for that right under
// that authority hand out those bytes without building anything; every
// other right gets its label built. A scan that fills the memo leaves
// its own right's label, and a label longer than the memo's bytes is
// built every time and leaves the memo to the next right that fits.
func TestPolicyRightLabel(t *testing.T) {
	a := newMemoAPI()
	text := memoPolicyText(3)
	inMemo := func(p *Policy, s string) bool {
		return len(s) > 0 && unsafe.StringData(s) == &p.rights.buf[0]
	}
	for _, tc := range []struct {
		name  string
		first func(p *Policy) // what takes the memo, if it can
	}{
		{"RightLabel", func(p *Policy) { p.RightLabel("apache", "GET", "/index.html") }},
		{"scan", func(p *Policy) { checkAuth(t, a, p, simpleRequest()) }},
		// The long label leaves the memo to the first query below.
		{"too long", func(p *Policy) { p.RightLabel("apache", "GET", "/"+strings.Repeat("x", memoLabelBytes)) }},
	} {
		p := NewPolicy("/index.html", nil, []*eacl.EACL{mustEACL(t, text)})
		tc.first(p)
		for _, q := range []struct{ auth, method, path string }{
			{"apache", "GET", "/index.html"},
			{"apache", "HEAD", "/index.html"},
			{"apache", "GET", "/index.htm"},
			{"apache", "GET /index.html", ""},
			{"nginx", "GET", "/index.html"},
		} {
			want := q.auth + " " + q.method + " " + q.path
			label := p.RightLabel(q.auth, q.method, q.path)
			if label != want {
				t.Errorf("%s: RightLabel(%q, %q, %q) = %q, want %q", tc.name, q.auth, q.method, q.path, label, want)
			}
			kept := want == "apache GET /index.html"
			if got := inMemo(p, label); got != kept {
				t.Errorf("%s: RightLabel(%q, %q, %q) in the memo's bytes: %v, want %v", tc.name, q.auth, q.method, q.path, got, kept)
			}
			if kept {
				if allocs := testing.AllocsPerRun(100, func() { label = p.RightLabel(q.auth, q.method, q.path) }); allocs != 0 {
					t.Errorf("%s: the memo's label costs %v allocations", tc.name, allocs)
				}
			}
		}
	}
}

// TestRequestFirstRight: the first right is the request's label when
// the label spells it, the same string and no copy, and is built when
// the label is unset or names anything else.
func TestRequestFirstRight(t *testing.T) {
	const want = "apache GET /index.html"
	for _, label := range []string{want, "", "nginx GET /index.html", "apache GET /index.htm", "apache/GET /index.html"} {
		req := NewRequest("apache", "GET /index.html")
		req.Label = label
		got := req.FirstRight()
		if got != want {
			t.Errorf("label %q: FirstRight = %q, want %q", label, got, want)
		}
		if reused := unsafe.StringData(got) == unsafe.StringData(label); reused != (label == want) {
			t.Errorf("label %q: FirstRight reused the label: %v, want %v", label, reused, label == want)
		}
		if allocs := testing.AllocsPerRun(100, func() { got = req.FirstRight() }); (allocs == 0) != (label == want) {
			t.Errorf("label %q: FirstRight allocates %v", label, allocs)
		}
	}
	if got := (&Request{}).FirstRight(); got != "" {
		t.Errorf("no rights: FirstRight = %q, want empty", got)
	}
}

// TestCompiledRightsMemoConcurrentFill starts 32 goroutines at once on
// one Policy, each asking for its own right with its label and asking
// RightLabel first: whichever writes the memo, every answer is the one
// its right deserves, a label handed out is the asker's, and the memo
// holds the tries' bits for the right it remembers. Run under -race
// -cpu 1,4.
func TestCompiledRightsMemoConcurrentFill(t *testing.T) {
	const workers = 32
	a := newMemoAPI()
	p := NewPolicy("/index.html", nil, []*eacl.EACL{mustEACL(t, memoPolicyText(workers))})
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		right, want := fmt.Sprintf("GET /doc%d.html", w), Yes
		if w%2 == 0 {
			right, want = fmt.Sprintf("GET /cgi-bin/sig%d/x", w), No
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ans := new(Answer)
			req := NewRequest("apache", right)
			req.Label = "apache " + right
			for i := 0; i < 50; i++ {
				if label := p.RightLabel("apache", "GET", right[len("GET "):]); label != req.Label {
					t.Errorf("%q: RightLabel = %q", right, label)
					return
				}
				if err := a.CheckAuthorizationInto(context.Background(), p, req, ans); err != nil || ans.Decision != want {
					t.Errorf("%q: decision %v (%v), want %v", right, ans.Decision, err, want)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if st := p.rights.state.Load(); st != memoReady {
		t.Fatalf("memo state %d after the burst, want ready", st)
	}
	words := bitWords(workers + 1)
	auth, value, _ := strings.Cut(p.rights.label(), " ")
	if got, want := p.rights.bits[:words], walkBits(a, p, eacl.Right{DefAuth: auth, Value: value}); !slices.Equal(got, want) {
		t.Fatalf("memo for %q holds %b, the tries say %b", p.rights.label(), got, want)
	}
}
