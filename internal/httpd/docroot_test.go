package httpd

import (
	"cmp"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"gaaapi/internal/gaa"
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

// TestOSRootUnnameableIsNotFound: a name no file can have, one with a
// NUL byte or with a component longer than any file system takes, names
// no document. Both were 500 "document error" while the open's EINVAL
// and ENAMETOOLONG came back as errors.
func TestOSRootUnnameableIsNotFound(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "index.html"), []byte("home"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Files: NewOSRoot(dir)})
	for _, target := range []string{"/index.html%00.txt", "/" + strings.Repeat("a", 300)} {
		if w := doRequest(t, s, "GET", target, nil); w.Code != http.StatusNotFound {
			t.Errorf("GET %.40s... = %d %q, want 404", target, w.Code, w.Body.String())
		}
	}
}

// osOpen is OSRoot.Open as it read through an os.File: the reference
// TestOSRootReadsAsOSDoes holds the descriptor-level read to.
func osOpen(dir, object string) (string, bool, error) {
	content, err := func(name string) (string, error) {
		f, err := os.Open(name)
		if err != nil {
			return "", err
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil || fi.IsDir() {
			return "", cmp.Or(err, fs.ErrNotExist)
		}
		data := make([]byte, fi.Size())
		n, err := io.ReadFull(f, data)
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			err = nil
		}
		return string(data[:n]), err
	}(dir + gaa.CleanObject(object))
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, syscall.ENOTDIR) {
		return "", false, nil
	}
	return content, err == nil, err
}

// TestOSRootReadsAsOSDoes: on every kind of name a document root meets,
// OSRoot.Open answers what the os.File read answered, and on Linux a
// thousand opens over all of them leave no descriptor open.
func TestOSRootReadsAsOSDoes(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "root")
	big := make([]byte, 1<<20+1)
	for i := range big {
		big[i] = byte(i * 31 >> 3)
	}
	mkdirAll(t, filepath.Join(dir, "withindex"))
	mkdirAll(t, filepath.Join(dir, "noindex"))
	for name, content := range map[string][]byte{
		"empty":                nil,
		"big":                  big,
		"withindex/index.html": []byte("index"),
		"../outside.html":      []byte("outside"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for link, target := range map[string]string{
		"to-file":    "withindex/index.html",
		"to-dir":     "withindex",
		"to-outside": "../outside.html",
		"dangling":   "missing",
		"loop":       "loop",
	} {
		if err := os.Symlink(target, filepath.Join(dir, link)); err != nil {
			t.Fatal(err)
		}
	}
	objects := []string{
		"/empty", "/big", "/withindex", "/withindex/index.html", "/noindex",
		"/noindex/index.html", "/big/below", "/empty/below/deeper",
		"/to-file", "/to-dir", "/to-dir/index.html", "/to-outside",
		"/dangling", "/loop", "/loop/below", "/missing",
	}
	if os.Geteuid() == 0 {
		t.Log("running as root, which reads a mode-000 file: that case is skipped")
	} else {
		if err := os.WriteFile(filepath.Join(dir, "unreadable"), []byte("x"), 0o000); err != nil {
			t.Fatal(err)
		}
		objects = append(objects, "/unreadable")
	}

	r := NewOSRoot(dir)
	errs := 0
	for _, object := range objects {
		got, ok, err := r.Open(object)
		want, wantOK, wantErr := osOpen(dir, object)
		if got != want || ok != wantOK || (err != nil) != (wantErr != nil) {
			t.Errorf("Open(%q) = %.20q, %v, %v; the os read says %.20q, %v, %v", object, got, ok, err, want, wantOK, wantErr)
		}
		if err != nil {
			errs++
		}
	}
	if errs == 0 {
		t.Error("no case reached an error path")
	}

	if runtime.GOOS != "linux" {
		return
	}
	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	before := fds()
	for i := range 1000 {
		r.Open(objects[i%len(objects)])
	}
	if after := fds(); after != before {
		t.Errorf("1000 opens left %d descriptors open (%d before, %d after)", after-before, before, after)
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
