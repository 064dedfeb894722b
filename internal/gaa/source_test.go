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

// TestDirSourceCacheRefresh: a loaded tree is refreshed by the next
// load, never by the file alone: the source keeps its parse after the
// file changes, and a new load reads the change.
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
	if again, err := d.Policies("/x"); err != nil || again[0] != first[0] {
		t.Error("the loaded tree changed under an edit that no load read")
	}
	second, err := NewDirSource(root, ".eacl").Policies("/x")
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first[0].Entries[0].Right, second[0].Entries[0].Right) {
		t.Error("the next load served the old policy after the file changed")
	}
}

// TestDirSourceRevisionTracksFiles: the revision a policy cache reads
// moves when the files do, through the swap a reload makes; the loaded
// tree's own revision is a constant.
func TestDirSourceRevisionTracksFiles(t *testing.T) {
	root := t.TempDir()
	s := NewSwappableSource(NewDirSource(root, ".eacl"))
	r1, err := s.Revision("/a/b/file")
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(root, ".eacl"), "pos_access_right a *\n")
	if r, _ := s.Revision("/a/b/file"); r != r1 {
		t.Errorf("revision moved from %q to %q with no load", r1, r)
	}
	s.Swap(NewDirSource(root, ".eacl"))
	r2, err := s.Revision("/a/b/file")
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Error("revision unchanged after the load that read the new file")
	}
}

// TestDirSourceForgetsAbsentFiles: a client walking nonexistent
// directories grows nothing, and a policy file that is removed stops
// governing at the next load.
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
	if n := len(d.chains); n != 2 {
		t.Errorf("source holds %d chains after probing 10000 absent directories, want 2 (the .eacl files that exist)", n)
	}

	if err := os.Remove(filepath.Join(root, "a/.eacl")); err != nil {
		t.Fatal(err)
	}
	d = NewDirSource(root, ".eacl")
	if got, err := d.Policies("/a/page.html"); err != nil || len(got) != 1 {
		t.Errorf("after removing a/.eacl: %d EACLs, %v; want 1 (root only)", len(got), err)
	}
	if all, _ := d.Files(); len(all) != 1 {
		t.Errorf("the load after the removal holds %d files, want 1", len(all))
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
