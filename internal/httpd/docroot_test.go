package httpd

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestObjectPath: the edge decides which document a URL path names,
// once, for every guard and both roots. The "/", "/docs/" and
// "/../index.html" rows were TestMapRoot's and TestOSRoot's while each
// root resolved paths its own way.
func TestObjectPath(t *testing.T) {
	flood := "/" + strings.Repeat("/", 40) + "index.html"
	tests := []struct{ path, want string }{
		{"/index.html", "/index.html"},
		{"/", "/index.html"},
		{"", "/index.html"},
		{"/docs/", "/docs/index.html"},
		{"/docs/.", "/docs/index.html"},
		{"/docs/a/..", "/docs/index.html"},
		{"/..", "/index.html"},
		{"/docs", "/docs"}, // a directory named without its slash is no document
		{"/../index.html", "/index.html"},
		{"/public/../private/secret.html", "/private/secret.html"},
		{"//private/secret.html", "/private/secret.html"},
		{"/private//", "/private/index.html"},
		{"/a//b/./c", "/a/b/c"},
		{"/cgi-bin/../private/secret.html", "/private/secret.html"},
		{"/scripts/..\xc0\xaf../winnt/cmd.exe", "/scripts/..\xc0\xaf../winnt/cmd.exe"},
		{flood, "/index.html"},
	}
	for _, tt := range tests {
		if got := objectPath(tt.path); got != tt.want {
			t.Errorf("objectPath(%q) = %q, want %q", tt.path, got, tt.want)
		}
	}
	// A clean path and a slash flood are sliced, not copied.
	for _, p := range []string{"/docs/a.html", "/", flood} {
		if n := testing.AllocsPerRun(100, func() { objectPath(p) }); n != 0 {
			t.Errorf("objectPath(%.20q...) allocates %v, want 0", p, n)
		}
	}
}

func TestMapRoot(t *testing.T) {
	m := MapRoot{
		"/index.html":      "home",
		"/docs/index.html": "docs home",
		"/docs/a.html":     "a",
	}
	tests := []struct {
		path   string
		want   string
		wantOK bool
	}{
		{"/index.html", "home", true},
		{"/docs/index.html", "docs home", true},
		{"/docs/a.html", "a", true},
		{"/docs", "", false},
		{"/missing", "", false},
	}
	for _, tt := range tests {
		got, ok, err := m.Open(tt.path)
		if err != nil || got != tt.want || ok != tt.wantOK {
			t.Errorf("Open(%q) = %q, %v, %v; want %q, %v", tt.path, got, ok, err, tt.want, tt.wantOK)
		}
	}
}

func mkdirAll(t *testing.T, path string) {
	t.Helper()
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
}

func TestOSRoot(t *testing.T) {
	dir := t.TempDir()
	mkdirAll(t, filepath.Join(dir, "docs"))
	write := func(rel, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, rel), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("index.html", "home")
	write("docs/index.html", "docs home")
	write("docs/a.html", "a")
	// A file OUTSIDE the root that traversal must not reach.
	outside := filepath.Join(filepath.Dir(dir), "secret.txt")
	if err := os.WriteFile(outside, []byte("secret"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(outside)

	r := NewOSRoot(dir)
	tests := []struct {
		path   string
		want   string
		wantOK bool
	}{
		{"/index.html", "home", true},
		{"/docs/index.html", "docs home", true},
		{"/docs/a.html", "a", true},
		{"/missing.html", "", false},
		{"/../secret.txt", "", false}, // traversal confined
		{"/docs/../../secret.txt", "", false},
		{"/index.html/below", "", false}, // nothing lives under a document
	}
	for _, tt := range tests {
		got, ok, err := r.Open(tt.path)
		if err != nil {
			t.Errorf("Open(%q) error: %v", tt.path, err)
			continue
		}
		if got != tt.want || ok != tt.wantOK {
			t.Errorf("Open(%q) = %q, %v; want %q, %v", tt.path, got, ok, tt.want, tt.wantOK)
		}
	}
	// A directory is no document, with an index or without: until
	// objectPath named the index, OSRoot served "/docs" as docs/index.html,
	// an object no policy had decided on.
	mkdirAll(t, filepath.Join(dir, "empty"))
	for _, p := range []string{"/docs", "/empty"} {
		if got, ok, err := r.Open(p); ok || err != nil {
			t.Errorf("Open(%q) = %q, %v, %v; want not found: the directory's index is a different object", p, got, ok, err)
		}
	}
}

// TestOSRootOpenSeesOneInode: a path that flips between a document and
// a directory while it is being served answers with the document or,
// while it is a directory or nothing, not found; never with an error.
// Open used to stat the path and then read it by name, and answered "is
// a directory" (a 500) when the flip fell in between.
func TestOSRootOpenSeesOneInode(t *testing.T) {
	dir := t.TempDir()
	page := filepath.Join(dir, "page")
	asDir, asFile := filepath.Join(dir, "page.dir"), filepath.Join(dir, "page.file")
	mkdirAll(t, page)
	if err := os.WriteFile(filepath.Join(page, "index.html"), []byte("index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(asFile, []byte("document"), 0o644); err != nil {
		t.Fatal(err)
	}
	stop, flipped := make(chan struct{}), make(chan error, 1)
	defer func() {
		close(stop)
		if err := <-flipped; err != nil {
			t.Error(err)
		}
	}()
	go func() {
		for {
			for _, mv := range [][2]string{{page, asDir}, {asFile, page}, {page, asFile}, {asDir, page}} {
				if err := os.Rename(mv[0], mv[1]); err != nil {
					flipped <- err
					return
				}
			}
			select {
			case <-stop:
				flipped <- nil
				return
			default:
			}
		}
	}()
	r := NewOSRoot(dir)
	seen := map[string]int{}
	// Long enough to meet both states many times over; the deadline only
	// bounds a host that never schedules the flipper.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; (i < 20000 || seen["document"] == 0 || seen[""] == 0) && time.Now().Before(deadline); i++ {
		got, ok, err := r.Open("/page")
		if err != nil {
			t.Fatalf("Open during a flip: %v", err)
		}
		if want := map[string]bool{"document": true, "": false}; want[got] != ok || (got != "" && !want[got]) {
			t.Fatalf("Open during a flip = %q, %v", got, ok)
		}
		seen[got]++
	}
	t.Logf("answers by content: %v", seen)
}

func TestServerWithOSRoot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "page.html"), []byte("from disk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Files: NewOSRoot(dir)})
	w := doRequest(t, s, "GET", "/page.html", nil)
	if w.Code != http.StatusOK || w.Body.String() != "from disk" {
		t.Errorf("disk-backed serve = %d %q", w.Code, w.Body.String())
	}
}

func TestHeadRequestOmitsBody(t *testing.T) {
	s := testServer(t, nil)
	w := doRequest(t, s, "HEAD", "/index.html", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("HEAD = %d", w.Code)
	}
	if w.Body.Len() != 0 {
		t.Errorf("HEAD body = %q, want empty", w.Body.String())
	}
	// The access log still records the would-be byte count.
	var log strings.Builder
	s2 := testServer(t, func(c *Config) { c.AccessLog = &log })
	doRequest(t, s2, "HEAD", "/index.html", nil)
	if !strings.Contains(log.String(), `"HEAD /index.html" 200`) {
		t.Errorf("log = %q", log.String())
	}
}
