package gaahttp

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gaaapi/internal/ids"
)

// objectSite is the site both deployments serve: /private/ is denied
// to everyone, the rest is open.
var objectSite = map[string]string{
	"/index.html":          "<html>home</html>",
	"/public/index.html":   "<html>public</html>",
	"/public/page.html":    "<html>page</html>",
	"/private/index.html":  "<html>private index</html>",
	"/private/secret.html": "<html>secret</html>",
}

// objectDeployment builds the site as one of the two deployments the
// guard must decide the same object in: "memory" keys local policies by
// glob (MemorySource) and serves a DocRoot map (MapRoot); "files" is
// gaa-httpd's shape, a per-directory .eacl tree (LocalPolicyDir) over the
// documents it serves from disk (OSRoot). local is the policy the whole
// site falls under; /private/ additionally denies all.
func objectDeployment(tb testing.TB, kind, local string) *Stack {
	tb.Helper()
	cfg := StackConfig{SensitiveObjects: []string{"/private/*"}, PolicyCache: true}
	switch kind {
	case "memory":
		cfg.LocalPolicies = map[string]string{"/private/*": denyAll, "*": local}
		cfg.DocRoot = objectSite
	case "files":
		site := tb.TempDir()
		files := map[string]string{"/.eacl": local, "/private/.eacl": denyAll}
		for p, content := range objectSite {
			files[p] = content
		}
		for p, content := range files {
			name := filepath.Join(site, filepath.FromSlash(p))
			if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
				tb.Fatal(err)
			}
			if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
				tb.Fatal(err)
			}
		}
		cfg.LocalPolicyDir, cfg.DocRootDir = site, site
	}
	st, err := NewStack(cfg)
	if err != nil {
		tb.Fatalf("NewStack(%s): %v", kind, err)
	}
	tb.Cleanup(st.Close)
	return st
}

var deploymentKinds = []string{"memory", "files"}

// TestServedObjectIsDecidedObject: every spelling of a denied document
// is denied and reported as the sensitive object it names. Until the
// server named the object once, the guard decided on the path as spelt
// while the roots cleaned it (the traversal, encoded and doubled-slash
// rows answered 200 with the secret), and the per-directory chain never
// visited the directory a trailing slash names (the "/private/" rows
// answered 200 with private/index.html from disk).
func TestServedObjectIsDecidedObject(t *testing.T) {
	for _, kind := range deploymentKinds {
		t.Run(kind, func(t *testing.T) {
			st := objectDeployment(t, kind, allowAll)
			reports := collectReports(st.Bus)
			for _, target := range []string{
				"/public/../private/secret.html",
				"/public/%2e%2e/private/secret.html",
				"//private/secret.html",
				"/private/",
				"/private/.",
				"/private//",
				"/cgi-bin/../private/secret.html",
			} {
				*reports = (*reports)[:0]
				w := get(t, st.Server, target, "", "")
				if w.Code != http.StatusForbidden {
					t.Errorf("GET %s = %d %q, want 403", target, w.Code, w.Body.String())
				}
				sensitive := false
				for _, r := range *reports {
					sensitive = sensitive || r.Kind == ids.SensitiveAccessDenial && strings.HasPrefix(r.Object, "/private/")
				}
				if !sensitive {
					t.Errorf("GET %s published no sensitive-object denial for /private/: %v", target, *reports)
				}
			}
			// A directory named without its slash is no document: the
			// guard lets it through to a root that has nothing there.
			if w := get(t, st.Server, "/private", "", ""); w.Code != http.StatusNotFound {
				t.Errorf("GET /private = %d %q, want 404", w.Code, w.Body.String())
			}
		})
	}
}

// unit is one byte of a URL path as the object names it, and how the
// request line spells it.
type unit struct {
	b     byte
	spelt string
}

func spell(p string) []unit {
	out := make([]unit, len(p))
	for i := range p {
		out[i] = unit{p[i], p[i : i+1]}
	}
	return out
}

func insertAt(us []unit, i int, s string) []unit {
	return append(us[:i:i], append(spell(s), us[i:]...)...)
}

// respell applies one edit per (op, arg) pair of ops to the spelling of
// p; each edit keeps the object p names. Slash-relative edits land
// after the arg-th slash.
func respell(p string, ops []byte) string {
	us := spell(p)
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%6, int(ops[i+1])
		var slashes []int
		for j, u := range us {
			if u.b == '/' {
				slashes = append(slashes, j+1)
			}
		}
		at := slashes[arg%len(slashes)]
		switch op {
		case 0:
			us = insertAt(us, at, "./")
		case 1: // a run of slashes, long enough for a flood
			us = insertAt(us, at, strings.Repeat("/", 1+arg%24))
		case 2:
			us = insertAt(us, at, "x/../")
		case 3, 4: // any byte but the leading slash, which is syntax
			if len(us) == 1 {
				break
			}
			j := 1 + arg%(len(us)-1)
			hex := "0123456789ABCDEF"
			if op == 4 {
				hex = "0123456789abcdef"
			}
			us[j].spelt = "%" + hex[us[j].b>>4:us[j].b>>4+1] + hex[us[j].b&15:us[j].b&15+1]
		case 5: // a directory's index, named by its trailing slash
			if n := len(us) - len("index.html"); n > 0 && us[n-1].b == '/' {
				tail := make([]byte, 0, len("index.html"))
				for _, u := range us[n:] {
					tail = append(tail, u.b)
				}
				if string(tail) == "index.html" {
					us = us[:n]
				}
			}
		}
	}
	var b strings.Builder
	for _, u := range us {
		b.WriteString(u.spelt)
	}
	return b.String()
}

// servingPolicies are the local policies the equivalence is held under.
// An object-only policy cannot tell two spellings of one object apart.
// The paper's section 7.2 slash-flood signature reads the raw request
// line, so a respelling that inserts its 19 slashes is denied by it; it
// is the one named row where the answers may differ, and there the
// respelled request must be the 403.
var servingPolicies = []struct {
	name, local string
	rawLine     func(target string) bool
}{
	{"object-only", allowAll, nil},
	{"7.2 slash flood", "neg_access_right apache *\npre_cond_regex gnu *///////////////////*\n" + allowAll + "\n",
		func(target string) bool { return strings.Contains(target, strings.Repeat("/", 19)) }},
}

// served is what a request's answer is compared on: its status, its
// bytes and the right the guard audited.
type served struct {
	code        int
	body, right string
}

func serveObject(st *Stack, target string) served {
	req := httptest.NewRequest("GET", target, nil)
	req.RemoteAddr = "10.7.7.7:40000"
	w := httptest.NewRecorder()
	st.Server.ServeHTTP(w, req)
	var right string
	for _, r := range st.Audit.Records() {
		if r.Kind == "gaa_check_authorization" {
			right = r.Right
		}
	}
	return served{w.Code, w.Body.String(), right}
}

// FuzzServingEquivalence: a respelled object — "./", "//" or "x/../"
// inserted, a byte %-encoded in upper or lower hex, a directory's index
// named by its trailing slash — gets the status, the bytes and the
// audited right of the object's canonical request, in both deployments.
func FuzzServingEquivalence(f *testing.F) {
	objects := []string{"/index.html", "/public/index.html", "/public/page.html",
		"/private/index.html", "/private/secret.html", "/private", "/missing.html", "/cgi-bin/search"}
	f.Add(uint8(0), []byte{0, 0})
	f.Add(uint8(4), []byte{2, 1, 3, 3})
	f.Add(uint8(3), []byte{5, 0, 0, 1})
	f.Add(uint8(1), []byte{1, 23, 4, 2})
	f.Add(uint8(7), []byte{0, 1, 1, 1, 2, 1, 3, 9})
	type deployment struct {
		kind, policy string
		rawLine      func(string) bool
		st           *Stack
	}
	var deployments []deployment
	for _, kind := range deploymentKinds {
		for _, pol := range servingPolicies {
			deployments = append(deployments, deployment{kind, pol.name, pol.rawLine, objectDeployment(f, kind, pol.local)})
		}
	}
	f.Fuzz(func(t *testing.T, object uint8, ops []byte) {
		if len(ops) > 16 {
			ops = ops[:16]
		}
		canonical := objects[int(object)%len(objects)]
		target := respell(canonical, ops)
		for _, d := range deployments {
			want, got := serveObject(d.st, canonical), serveObject(d.st, target)
			if d.rawLine != nil && d.rawLine(target) {
				if got.code != http.StatusForbidden {
					t.Errorf("%s/%s: GET %s = %d, want 403: the signature reads the raw line", d.kind, d.policy, target, got.code)
				}
				continue
			}
			if got != want {
				t.Errorf("%s/%s: GET %s = %+v, GET %s = %+v", d.kind, d.policy, target, got, canonical, want)
			}
		}
	})
}
