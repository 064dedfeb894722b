package gaa

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestMemorySource(t *testing.T) {
	m := NewMemorySource()
	if err := m.AddPolicy("*", "pos_access_right apache *"); err != nil {
		t.Fatalf("AddPolicy: %v", err)
	}
	if err := m.AddPolicy("/secret/*", "neg_access_right apache *"); err != nil {
		t.Fatalf("AddPolicy: %v", err)
	}
	got, err := m.Policies("/secret/file")
	if err != nil {
		t.Fatalf("Policies: %v", err)
	}
	if len(got) != 2 {
		t.Errorf("policies for /secret/file = %d, want 2", len(got))
	}
	got, err = m.Policies("/public")
	if err != nil {
		t.Fatalf("Policies: %v", err)
	}
	if len(got) != 1 {
		t.Errorf("policies for /public = %d, want 1", len(got))
	}
	if err := m.AddPolicy("bad", "pre_cond_x y"); err == nil {
		t.Error("AddPolicy with invalid source should fail")
	}
}

func TestMemorySourceRevisionChanges(t *testing.T) {
	m := NewMemorySource()
	r1, _ := m.Revision("/x")
	if err := m.AddPolicy("*", "pos_access_right apache *"); err != nil {
		t.Fatal(err)
	}
	r2, _ := m.Revision("/x")
	if r1 == r2 {
		t.Error("revision unchanged after Add")
	}
}

func TestFileSource(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "system.eacl")
	writeFile(t, path, "eacl_mode narrow\nneg_access_right * *\n")

	f := NewFileSource(path)
	got, err := f.Policies("/anything")
	if err != nil {
		t.Fatalf("Policies: %v", err)
	}
	if len(got) != 1 || !got[0].ModeSet {
		t.Fatalf("policies = %v", got)
	}
	// Second read hits the parse cache (same pointer).
	again, err := f.Policies("/other")
	if err != nil {
		t.Fatalf("Policies: %v", err)
	}
	if got[0] != again[0] {
		t.Error("expected cached EACL pointer on unchanged file")
	}

	// Rewrite with a different mtime: cache must refresh.
	writeFile(t, path, "pos_access_right apache *\n")
	bumpMtime(t, path)
	refreshed, err := f.Policies("/x")
	if err != nil {
		t.Fatalf("Policies after rewrite: %v", err)
	}
	if refreshed[0] == got[0] {
		t.Error("stale cache after file change")
	}
	if refreshed[0].ModeSet {
		t.Error("refreshed parse still has old content")
	}
}

func TestFileSourceMissingFile(t *testing.T) {
	f := NewFileSource(filepath.Join(t.TempDir(), "absent.eacl"))
	got, err := f.Policies("/x")
	if err != nil || got != nil {
		t.Errorf("Policies on absent file = %v, %v; want nil, nil", got, err)
	}
	rev, err := f.Revision("/x")
	if err != nil || rev != "absent" {
		t.Errorf("Revision = %q, %v; want absent, nil", rev, err)
	}
}

func TestFileSourceParseError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.eacl")
	writeFile(t, path, "pre_cond_orphan local x\n")
	f := NewFileSource(path)
	if _, err := f.Policies("/x"); err == nil {
		t.Error("want parse error")
	}
}

func TestDirSourceWalksDirectoryChain(t *testing.T) {
	root := t.TempDir()
	mkdir(t, filepath.Join(root, "a/b"))
	writeFile(t, filepath.Join(root, ".eacl"), "pos_access_right apache *\n")
	writeFile(t, filepath.Join(root, "a/b/.eacl"), "neg_access_right apache *\n")

	d := NewDirSource(root, ".eacl")
	got, err := d.Policies("/a/b/page.html")
	if err != nil {
		t.Fatalf("Policies: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("policies = %d, want 2 (root then a/b)", len(got))
	}
	// Root policy first (outer-to-inner ordering, like Apache).
	if got[0].Entries[0].Right.Sign.String() != "pos_access_right" {
		t.Error("root policy should come first")
	}

	// Object at root: only the root policy applies.
	got, err = d.Policies("/page.html")
	if err != nil {
		t.Fatalf("Policies: %v", err)
	}
	if len(got) != 1 {
		t.Errorf("root object policies = %d, want 1", len(got))
	}

	// Directory without policy contributes nothing.
	mkdir(t, filepath.Join(root, "c"))
	got, err = d.Policies("/c/x")
	if err != nil {
		t.Fatalf("Policies: %v", err)
	}
	if len(got) != 1 {
		t.Errorf("policies under /c = %d, want 1 (root only)", len(got))
	}
}

func TestDirSourceCacheRefresh(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, ".eacl"), "pos_access_right apache *\n")
	d := NewDirSource(root, ".eacl")
	first, err := d.Policies("/x")
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(root, ".eacl"), "neg_access_right apache *\n")
	bumpMtime(t, filepath.Join(root, ".eacl"))
	second, err := d.Policies("/x")
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first[0].Entries[0].Right, second[0].Entries[0].Right) {
		t.Error("DirSource served stale policy after file change")
	}
}

// TestDirSourceForgetsAbsentFiles pins the bound on DirSource's parse
// cache: a client walking nonexistent directories leaves nothing
// behind, and a policy file that is removed stops governing.
func TestDirSourceForgetsAbsentFiles(t *testing.T) {
	root := t.TempDir()
	mkdir(t, filepath.Join(root, "a"))
	writeFile(t, filepath.Join(root, ".eacl"), "pos_access_right apache *\n")
	writeFile(t, filepath.Join(root, "a/.eacl"), "neg_access_right apache *\n")
	d := NewDirSource(root, ".eacl")
	if got, err := d.Policies("/a/page.html"); err != nil || len(got) != 2 {
		t.Fatalf("Policies = %d EACLs, %v; want 2", len(got), err)
	}
	for i := 0; i < 10000; i++ {
		got, err := d.Policies(fmt.Sprintf("/x%d/a", i))
		if err != nil || len(got) != 1 {
			t.Fatalf("Policies under /x%d = %d EACLs, %v; want 1 (root only)", i, len(got), err)
		}
	}
	if n := d.Len(); n != 2 {
		t.Errorf("chain remembers %d files after probing 10000 absent directories, want 2 (the .eacl files that exist)", n)
	}

	if err := os.Remove(filepath.Join(root, "a/.eacl")); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Policies("/a/page.html"); err != nil || len(got) != 1 {
		t.Errorf("after removing a/.eacl: %d EACLs, %v; want 1 (root only)", len(got), err)
	}
	if n := d.Len(); n != 1 {
		t.Errorf("chain remembers %d files after the removal, want 1", n)
	}
}

func TestObjectDirs(t *testing.T) {
	tests := []struct {
		object string
		want   []string
	}{
		{"/", []string{""}},
		{"", []string{""}},
		{"/file.html", []string{""}},
		{"/a/file", []string{"", "a"}},
		{"/a/b/c/file", []string{"", "a", "a/b", "a/b/c"}},
		{"a/b/../c/file", []string{"", "a", "a/c"}},
	}
	for _, tt := range tests {
		var got []string
		EachDir(tt.object, func(dir string) error {
			got = append(got, dir)
			return nil
		})
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("EachDir(%q) = %v, want %v", tt.object, got, tt.want)
		}
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatalf("WriteFile(%s): %v", path, err)
	}
}

func mkdir(t *testing.T, path string) {
	t.Helper()
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatalf("MkdirAll(%s): %v", path, err)
	}
}

// bumpMtime forces a distinct modification stamp even on filesystems
// with coarse timestamp resolution.
func bumpMtime(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	newTime := fi.ModTime().Add(2 * time.Second)
	if err := os.Chtimes(path, newTime, newTime); err != nil {
		t.Fatal(err)
	}
}
