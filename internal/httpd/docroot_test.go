package httpd

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

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
		{"/", "home", true},
		{"/docs/", "docs home", true},
		{"/docs/a.html", "a", true},
		{"/missing", "", false},
		{"/../index.html", "home", true}, // cleaned, cannot escape
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
		{"/", "home", true},
		{"/docs", "docs home", true}, // directory resolves to its index
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
	// Directory without an index: not found.
	mkdirAll(t, filepath.Join(dir, "empty"))
	if _, ok, err := r.Open("/empty"); ok || err != nil {
		t.Errorf("dir without index = %v, %v; want false, nil", ok, err)
	}
}

// TestOSRootOpenAllocs pins a document read at what one open, one
// fstat and one sized read allocate (12 when Open stat'ed the path,
// joined and cleaned it twice and let os.ReadFile stat it again).
func TestOSRootOpenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	dir := t.TempDir()
	mkdirAll(t, filepath.Join(dir, "docs"))
	if err := os.WriteFile(filepath.Join(dir, "docs/guide.html"), []byte("<html>guide</html>"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewOSRoot(dir)
	if got := testing.AllocsPerRun(200, func() { r.Open("/docs/guide.html") }); got > 7 {
		t.Errorf("OSRoot.Open allocates %v, want <= 7", got)
	}
}

// TestOSRootOpenSeesOneInode: a path that flips between a document and
// a directory while it is being served answers with the document, with
// the directory's index, or — in the instant it is neither — not found;
// never with an error. Open used to stat the path and then read it by
// name, and answered "is a directory" (a 500) when the flip fell in
// between.
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
	for i := 0; (i < 20000 || seen["document"] == 0 || seen["index"] == 0) && time.Now().Before(deadline); i++ {
		got, ok, err := r.Open("/page")
		if err != nil {
			t.Fatalf("Open during a flip: %v", err)
		}
		if want := map[string]bool{"document": true, "index": true, "": false}; want[got] != ok || (got != "" && !want[got]) {
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

func TestCleanURLPath(t *testing.T) {
	tests := []struct{ in, want string }{
		{"/a/b", "/a/b"},
		{"a/b", "/a/b"},
		{"/a/../b", "/b"},
		{"/../../x", "/x"},
		{"", "/"},
		{"//a//b/", "/a/b"},
	}
	for _, tt := range tests {
		if got := cleanURLPath(tt.in); got != tt.want {
			t.Errorf("cleanURLPath(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}
