package gaa

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gaaapi/internal/eacl"
)

// Two policies of the same length, so swapping one for the other can
// change a file's mtime and nothing else.
const (
	chainPolicyOld = "pos_access_right apache *\n"
	chainPolicyNew = "neg_access_right apache *\n"
	chainPolicyBig = "neg_access_right apache *\n# and a byte more\n"
)

// chainEdits is every way a policy file changes under a running server.
// Each edit leaves the file holding want ("" = no file), and none of
// them waits for the clock: what tells two versions apart is presence,
// mtime and size, so each edit moves at least one of them on purpose.
var chainEdits = []struct {
	name   string
	before string // content ahead of the edit, "" = absent
	want   string
	apply  func(t *testing.T, file string)
}{
	{"create", "", chainPolicyNew, func(t *testing.T, file string) {
		writeFile(t, file, chainPolicyNew)
	}},
	{"modify size", chainPolicyOld, chainPolicyBig, func(t *testing.T, file string) {
		fi, err := os.Stat(file)
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, file, chainPolicyBig)
		if err := os.Chtimes(file, fi.ModTime(), fi.ModTime()); err != nil {
			t.Fatal(err)
		}
	}},
	{"modify mtime only", chainPolicyOld, chainPolicyNew, func(t *testing.T, file string) {
		writeFile(t, file, chainPolicyNew)
		bumpMtime(t, file)
	}},
	{"delete", chainPolicyOld, "", func(t *testing.T, file string) {
		if err := os.Remove(file); err != nil {
			t.Fatal(err)
		}
	}},
	{"replace by rename", chainPolicyOld, chainPolicyNew, func(t *testing.T, file string) {
		tmp := file + ".tmp"
		writeFile(t, tmp, chainPolicyNew)
		bumpMtime(t, tmp)
		if err := os.Rename(tmp, file); err != nil {
			t.Fatal(err)
		}
	}},
}

// chainSays reports whether the EACLs a lookup returned for the edited
// file are what want ("" = no file) parses to.
func chainSays(got []*eacl.EACL, want string) bool {
	if want == "" {
		return len(got) == 0
	}
	return len(got) == 1 && got[0].Entries[0].Right.String()+"\n" == strings.SplitAfter(want, "\n")[0]
}

// TestEditGovernsNextRequest: whatever happens to a per-directory policy
// file, the next GetObjectPolicyInfo under that directory — policy cache
// on, no sleep — is composed from the new content. A lookup elsewhere
// pays for the edit with one recompose and no more: it gets the same
// parses back by pointer, so nothing is compiled again.
func TestEditGovernsNextRequest(t *testing.T) {
	for _, where := range []struct{ name, dir, object string }{
		{"root", "", "/page.html"},
		{"nested", "a/b", "/a/b/page.html"},
	} {
		for _, edit := range chainEdits {
			t.Run(where.name+"/"+edit.name, func(t *testing.T) {
				root := t.TempDir()
				mkdir(t, filepath.Join(root, "a/b"))
				mkdir(t, filepath.Join(root, "other"))
				writeFile(t, filepath.Join(root, "other/.eacl"), chainPolicyOld)
				file := filepath.Join(root, where.dir, ".eacl")
				if edit.before != "" {
					writeFile(t, file, edit.before)
				}
				a := New(WithPolicyCache(64))
				local := []PolicySource{NewDirSource(root, ".eacl")}
				get := func(object string) *Policy {
					t.Helper()
					p, err := a.GetObjectPolicyInfo(object, nil, local)
					if err != nil {
						t.Fatalf("GetObjectPolicyInfo(%s): %v", object, err)
					}
					checkAuth(t, a, p, simpleRequest())
					return p
				}
				if p := get(where.object); !chainSays(p.Local, edit.before) {
					t.Fatalf("before the edit: %d local EACLs, want %q", len(p.Local), edit.before)
				}
				elsewhere := get("/other/page.html")

				edit.apply(t, file)

				if p := get(where.object); !chainSays(p.Local, edit.want) {
					t.Errorf("the lookup after the edit is not composed from the new content (%d local EACLs, want %q)", len(p.Local), edit.want)
				}
				programs, misses := a.CompileStats().Programs, a.CacheStats().Misses
				again := get("/other/page.html")
				if again.Local[len(again.Local)-1] != elsewhere.Local[len(elsewhere.Local)-1] {
					t.Error("other/.eacl was parsed again after an edit somewhere else")
				}
				if got := a.CompileStats().Programs; got != programs {
					t.Errorf("the lookup elsewhere compiled %d units, want 0", got-programs)
				}
				if got := a.CacheStats().Misses - misses; got > 1 {
					t.Errorf("the lookup elsewhere missed the cache %d times, want at most once", got)
				}
				misses = a.CacheStats().Misses
				get("/other/page.html")
				get(where.object)
				if got := a.CacheStats().Misses; got != misses {
					t.Errorf("%d more misses with nothing edited; an edit makes an entry stale once", got-misses)
				}
			})
		}
	}
}

// TestFileSourceEditGovernsNextRequest is the same table for the
// one-file source, as the system-wide policy of an API with the cache
// on.
func TestFileSourceEditGovernsNextRequest(t *testing.T) {
	for _, edit := range chainEdits {
		t.Run(edit.name, func(t *testing.T) {
			file := filepath.Join(t.TempDir(), "system.eacl")
			if edit.before != "" {
				writeFile(t, file, edit.before)
			}
			a := New(WithPolicyCache(64))
			system := []PolicySource{NewFileSource(file)}
			get := func() []*eacl.EACL {
				t.Helper()
				p, err := a.GetObjectPolicyInfo("/page.html", system, nil)
				if err != nil {
					t.Fatalf("GetObjectPolicyInfo: %v", err)
				}
				return p.System
			}
			if got := get(); !chainSays(got, edit.before) {
				t.Fatalf("before the edit: %d EACLs, want %q", len(got), edit.before)
			}
			edit.apply(t, file)
			got := get()
			if !chainSays(got, edit.want) {
				t.Errorf("the lookup after the edit is not composed from the new content (%d EACLs, want %q)", len(got), edit.want)
			}
			misses := a.CacheStats().Misses
			if again := get(); len(again) != len(got) || (len(got) == 1 && again[0] != got[0]) {
				t.Error("an unchanged file was parsed again")
			}
			if a.CacheStats().Misses != misses {
				t.Error("an unchanged file missed the policy cache")
			}
		})
	}
}

// TestDirChainStatsEveryComponent: the walk is the paper's retrieval at
// access-control time. Every call stats every directory of the path —
// found, absent, seen a moment ago or never — and nothing but the file
// system decides what it returns.
func TestDirChainStatsEveryComponent(t *testing.T) {
	root := t.TempDir()
	mkdir(t, filepath.Join(root, "a/b/c"))
	writeFile(t, filepath.Join(root, ".eacl"), chainPolicyOld)
	writeFile(t, filepath.Join(root, "a/b/.eacl"), chainPolicyOld)
	d := NewDirSource(root, ".eacl")
	var stats []string
	d.stat = func(file string) (fs.FileInfo, error) {
		stats = append(stats, strings.TrimPrefix(file, root))
		return os.Stat(file)
	}
	want := "/.eacl /a/.eacl /a/b/.eacl /a/b/c/.eacl"
	for i := 0; i < 3; i++ {
		for name, call := range map[string]func(string) error{
			"Revision": func(o string) error { _, err := d.Revision(o); return err },
			"Policies": func(o string) error { _, err := d.Policies(o); return err },
		} {
			stats = stats[:0]
			if err := call("/a/b/c/page.html"); err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(stats, " "); got != want {
				t.Errorf("round %d: %s stats %q, want %q", i, name, got, want)
			}
		}
	}
	if rev, _ := d.Revision("/a/b/c/page.html"); rev != "dir-2" {
		t.Errorf("revision %q after two files were found and nothing changed, want dir-2", rev)
	}
}

// TestDirChainErrors: a file that cannot be parsed or a path that cannot
// be stat'ed fails the lookup — Revision included, so a cached
// composition is never served past a broken file — and is looked at
// again by the next call.
func TestDirChainErrors(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, ".eacl"), chainPolicyOld)
	writeFile(t, filepath.Join(root, "page.html"), "a document, not a directory")
	d := NewDirSource(root, ".eacl")
	if _, err := d.Policies("/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Policies("/page.html/below"); err == nil {
		t.Error("Policies under a document: want the stat's error")
	}
	if _, err := d.Revision("/page.html/below"); err == nil {
		t.Error("Revision under a document: want the stat's error")
	}
	writeFile(t, filepath.Join(root, ".eacl"), "pre_cond_orphan local x\n")
	bumpMtime(t, filepath.Join(root, ".eacl"))
	if _, err := d.Revision("/x"); err == nil {
		t.Error("Revision over a malformed file: want the parse error")
	}
	if _, err := d.Policies("/x"); err == nil {
		t.Error("Policies over a malformed file: want the parse error")
	}
	f := NewFileSource(filepath.Join(root, ".eacl"))
	if rev, err := f.Revision("/x"); err == nil {
		t.Errorf("FileSource.Revision over a malformed file = %q, want the parse error", rev)
	}
	writeFile(t, filepath.Join(root, ".eacl"), chainPolicyNew)
	bumpMtime(t, filepath.Join(root, ".eacl"))
	if got, err := d.Policies("/x"); err != nil || !chainSays(got, chainPolicyNew) {
		t.Errorf("after the repair: %d EACLs, %v", len(got), err)
	}
}

// TestDirChainVanishedBeforeParse: a file removed between its stat and
// the parse's open is an absent file, not a failed request.
func TestDirChainVanishedBeforeParse(t *testing.T) {
	root := t.TempDir()
	file := filepath.Join(root, ".eacl")
	writeFile(t, file, chainPolicyOld)
	c := NewDirChain(root, ".eacl", func(file string) (*eacl.EACL, error) {
		if err := os.Remove(file); err != nil {
			t.Fatal(err)
		}
		return eacl.ParseFile(file)
	})
	if got, err := c.Walk("/x"); err != nil || got != nil {
		t.Errorf("Walk = %v, %v; want nothing, nil", got, err)
	}
	if c.Len() != 0 {
		t.Errorf("chain remembers %d files, want 0", c.Len())
	}
}

// TestDirSourceConcurrentEdits: lookups never queue behind a stat or a
// parse, and a policy file edited under load is never answered with an
// error or with content that was not on disk during the call. Eight
// readers resolve 64 objects through an API with the cache on while a
// ninth goroutine replaces, removes and recreates the eight .eacl files;
// every version carries its sequence number, so each answer is checked
// against the versions that existed between the call's start and its
// return. Run with -race.
func TestDirSourceConcurrentEdits(t *testing.T) {
	const dirs, filesPerDir, readers, lookups = 8, 8, 8, 400
	root := t.TempDir()
	base := time.Now().Add(-time.Hour)
	// Operation k on a directory leaves: k%3 == 1 no file, otherwise a
	// policy naming k, with an mtime of its own so that no two versions
	// look alike to a stat. begun is bumped before operation k touches
	// the disk, done after it has.
	var begun, done [dirs]atomic.Int64
	dirName := func(d int) string { return "d" + strconv.Itoa(d) }
	operate := func(d int, k int64) error {
		file := filepath.Join(root, dirName(d), ".eacl")
		if k%3 == 1 {
			return os.Remove(file)
		}
		tmp := file + ".tmp"
		if err := os.WriteFile(tmp, []byte("pos_access_right apache v"+strconv.FormatInt(k, 10)+"\n"), 0o644); err != nil {
			return err
		}
		mtime := base.Add(time.Duration(k) * time.Second)
		if err := os.Chtimes(tmp, mtime, mtime); err != nil {
			return err
		}
		return os.Rename(tmp, file)
	}
	for d := 0; d < dirs; d++ {
		mkdir(t, filepath.Join(root, dirName(d)))
		if err := operate(d, 0); err != nil {
			t.Fatal(err)
		}
	}
	a := New(WithPolicyCache(64))
	local := []PolicySource{NewDirSource(root, ".eacl")}

	stop, exited := make(chan struct{}), make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		defer close(exited)
		for k := int64(1); ; k++ {
			for d := 0; d < dirs; d++ {
				select {
				case <-stop:
					return
				default:
				}
				begun[d].Store(k)
				if err := operate(d, k); err != nil {
					t.Errorf("edit %d of %s: %v", k, dirName(d), err)
					return
				}
				done[d].Store(k)
			}
		}
	}()
	// A reader runs its lookups, then reads on until the writer has
	// edited every directory three times (or has failed), so the edits
	// run beside the reads however the scheduler orders the goroutines.
	edited := func() bool {
		select {
		case <-exited:
			return true
		default:
			return done[dirs-1].Load() >= 3
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < lookups || !edited(); i++ {
				d := (r + i) % dirs
				object := "/" + dirName(d) + "/f" + strconv.Itoa(i%filesPerDir)
				lo := done[d].Load()
				p, err := a.GetObjectPolicyInfo(object, nil, local)
				hi := begun[d].Load()
				if err != nil {
					t.Errorf("GetObjectPolicyInfo(%s): %v", object, err)
					return
				}
				if len(p.Local) == 0 {
					if hi-lo < 2 && lo%3 != 1 && hi%3 != 1 {
						t.Errorf("%s: no policy, but the file existed throughout edits %d..%d", object, lo, hi)
					}
					continue
				}
				v, err := strconv.ParseInt(strings.TrimPrefix(p.Local[0].Entries[0].Right.Value, "v"), 10, 64)
				if err != nil || len(p.Local) != 1 || v < lo || v > hi {
					t.Errorf("%s: composed from %v, which was not on disk during edits %d..%d", object, p.Local[0].Entries[0].Right, lo, hi)
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	if n := done[0].Load(); n < 3 {
		t.Errorf("only %d edits per directory ran beside %d lookups: the readers met no change", n, readers*lookups)
	}
}

func TestCleanObject(t *testing.T) {
	tests := []struct{ in, want string }{
		{"/a/b", "/a/b"},
		{"a/b", "/a/b"},
		{"/a/../b", "/b"},
		{"/../../x", "/x"},
		{"", "/"},
		{"//a//b/", "/a/b"},
	}
	for _, tt := range tests {
		if got := CleanObject(tt.in); got != tt.want {
			t.Errorf("CleanObject(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// FuzzCleanObject holds CleanObject to path.Clean("/"+p), the cleaner
// the server's MapRoot used before it called CleanObject: a path that
// needs no "/" prefixed is cleaned without concatenating one, and so
// without allocating when it is already clean.
func FuzzCleanObject(f *testing.F) {
	for _, p := range []string{"/a/b", "a/b", "/a/../b", "/../../x", "", "//a//b/", "/", ".", "..", "/docs/", "/./x/."} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p string) {
		if got, want := CleanObject(p), path.Clean("/"+p); got != want {
			t.Errorf("CleanObject(%q) = %q, path.Clean(\"/\"+p) = %q", p, got, want)
		}
	})
}
