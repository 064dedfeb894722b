package gaa

import (
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
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
// file, the next walk under that directory returns the new content. A
// walk elsewhere gets the same parses back by pointer, so nothing keyed
// by them (a compiled unit, a composition) is built again.
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
				c := NewDirChain(root, ".eacl", eacl.ParseFile)
				walk := func(object string) []*eacl.EACL {
					t.Helper()
					got, err := c.Walk(object)
					if err != nil {
						t.Fatalf("Walk(%s): %v", object, err)
					}
					return got
				}
				if got := walk(where.object); !chainSays(got, edit.before) {
					t.Fatalf("before the edit: %d EACLs, want %q", len(got), edit.before)
				}
				elsewhere := walk("/other/page.html")

				edit.apply(t, file)

				got := walk(where.object)
				if !chainSays(got, edit.want) {
					t.Errorf("the walk after the edit does not return the new content (%d EACLs, want %q)", len(got), edit.want)
				}
				again := walk("/other/page.html")
				if again[len(again)-1] != elsewhere[len(elsewhere)-1] {
					t.Error("other/.eacl was parsed again after an edit somewhere else")
				}
				if next := walk(where.object); !slices.Equal(next, got) {
					t.Error("an unchanged file was parsed again")
				}
			})
		}
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
	c := NewDirChain(root, ".eacl", eacl.ParseFile)
	var stats []string
	c.stat = func(file string) (fs.FileInfo, error) {
		stats = append(stats, strings.TrimPrefix(file, root))
		return os.Stat(file)
	}
	want := "/.eacl /a/.eacl /a/b/.eacl /a/b/c/.eacl"
	for i := 0; i < 3; i++ {
		stats = stats[:0]
		if _, err := c.Walk("/a/b/c/page.html"); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(stats, " "); got != want {
			t.Errorf("round %d: Walk stats %q, want %q", i, got, want)
		}
	}
	if n := c.Len(); n != 2 {
		t.Errorf("chain remembers %d files, want the 2 that exist", n)
	}
}

// TestDirChainErrors: a file that cannot be parsed or a path that cannot
// be stat'ed fails the walk, and is looked at again by the next one.
func TestDirChainErrors(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, ".eacl"), chainPolicyOld)
	writeFile(t, filepath.Join(root, "page.html"), "a document, not a directory")
	c := NewDirChain(root, ".eacl", eacl.ParseFile)
	if _, err := c.Walk("/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Walk("/page.html/below"); err == nil {
		t.Error("Walk under a document: want the stat's error")
	}
	writeFile(t, filepath.Join(root, ".eacl"), "pre_cond_orphan local x\n")
	bumpMtime(t, filepath.Join(root, ".eacl"))
	for i := 0; i < 2; i++ {
		if _, err := c.Walk("/x"); err == nil {
			t.Errorf("Walk %d over a malformed file: want the parse error", i)
		}
	}
	writeFile(t, filepath.Join(root, ".eacl"), chainPolicyNew)
	bumpMtime(t, filepath.Join(root, ".eacl"))
	if got, err := c.Walk("/x"); err != nil || !chainSays(got, chainPolicyNew) {
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

// TestDirChainConcurrentEdits: walks never queue behind a stat or a
// parse, and a policy file edited under load is never answered with an
// error or with content that was not on disk during the call. Eight
// readers walk to 64 objects while a ninth goroutine replaces, removes
// and recreates the eight .eacl files; every version carries its
// sequence number, so each answer is checked against the versions that
// existed between the call's start and its return. Walks that meet one
// version first at once all get the parse the first of them stored: one
// version is one pointer. Run with -race.
func TestDirChainConcurrentEdits(t *testing.T) {
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
	c := NewDirChain(root, ".eacl", eacl.ParseFile)

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
				got, err := c.Walk(object)
				hi := begun[d].Load()
				if err != nil {
					t.Errorf("Walk(%s): %v", object, err)
					return
				}
				if len(got) == 0 {
					if hi-lo < 2 && lo%3 != 1 && hi%3 != 1 {
						t.Errorf("%s: no policy, but the file existed throughout edits %d..%d", object, lo, hi)
					}
					continue
				}
				v, err := strconv.ParseInt(strings.TrimPrefix(got[0].Entries[0].Right.Value, "v"), 10, 64)
				if err != nil || len(got) != 1 || v < lo || v > hi {
					t.Errorf("%s: walked to %v, which was not on disk during edits %d..%d", object, got[0].Entries[0].Right, lo, hi)
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

	mkdir(t, filepath.Join(root, "same"))
	writeFile(t, filepath.Join(root, "same", ".eacl"), chainPolicyOld)
	for round := 0; round < 20; round++ {
		fresh := NewDirChain(root, ".eacl", eacl.ParseFile)
		var start, walked sync.WaitGroup
		got := make([]*eacl.EACL, readers)
		start.Add(1)
		for r := range got {
			walked.Add(1)
			go func(r int) {
				defer walked.Done()
				start.Wait()
				if es, err := fresh.Walk("/same/page.html"); err == nil && len(es) == 1 {
					got[r] = es[0]
				}
			}(r)
		}
		start.Done()
		walked.Wait()
		for r, e := range got {
			if e == nil || e != got[0] {
				t.Fatalf("round %d: reader %d walked to %p, reader 0 to %p: one version, two pointers", round, r, e, got[0])
			}
		}
	}
}

// TestDirChainForgetsAbsentFiles pins the bound on DirChain's parse
// cache: a client walking nonexistent directories leaves nothing
// behind, and a policy file that is removed stops governing.
func TestDirChainForgetsAbsentFiles(t *testing.T) {
	root := t.TempDir()
	mkdir(t, filepath.Join(root, "a"))
	writeFile(t, filepath.Join(root, ".eacl"), "pos_access_right apache *\n")
	writeFile(t, filepath.Join(root, "a/.eacl"), "neg_access_right apache *\n")
	c := NewDirChain(root, ".eacl", eacl.ParseFile)
	if got, err := c.Walk("/a/page.html"); err != nil || len(got) != 2 {
		t.Fatalf("Walk = %d EACLs, %v; want 2", len(got), err)
	}
	for i := 0; i < 10000; i++ {
		got, err := c.Walk(fmt.Sprintf("/x%d/a", i))
		if err != nil || len(got) != 1 {
			t.Fatalf("Walk under /x%d = %d EACLs, %v; want 1 (root only)", i, len(got), err)
		}
	}
	if n := c.Len(); n != 2 {
		t.Errorf("chain remembers %d files after probing 10000 absent directories, want 2 (the .eacl files that exist)", n)
	}

	if err := os.Remove(filepath.Join(root, "a/.eacl")); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Walk("/a/page.html"); err != nil || len(got) != 1 {
		t.Errorf("after removing a/.eacl: %d EACLs, %v; want 1 (root only)", len(got), err)
	}
	if n := c.Len(); n != 1 {
		t.Errorf("chain remembers %d files after the removal, want 1", n)
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
