package httpd

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestMapHtaccessSourceChain(t *testing.T) {
	src := NewMapHtaccessSource()
	if err := src.SetString("", "Order Deny,Allow\n"); err != nil {
		t.Fatal(err)
	}
	if err := src.SetString("docs/private", "Require valid-user\n"); err != nil {
		t.Fatal(err)
	}
	chain, err := src.For("/docs/private/report.html")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("chain = %d, want 2", len(chain))
	}
	// Outer first, inner last.
	if len(chain[1].Require) == 0 {
		t.Error("innermost htaccess should be last")
	}
	if got, err := src.For("/other.html"); err != nil || len(got) != 1 {
		t.Errorf("root-only chain = %v, %v", got, err)
	}
	if dirs := src.Dirs(); !reflect.DeepEqual(dirs, []string{"", "docs/private"}) {
		t.Errorf("Dirs = %v", dirs)
	}
	if err := src.SetString("x", "Bogus directive\n"); err == nil {
		t.Error("SetString with bad content should fail")
	}
}

func TestBaselineGuardMostSpecificWins(t *testing.T) {
	src := NewMapHtaccessSource()
	// Root locks everything down; the public subtree reopens it.
	if err := src.SetString("", "Require valid-user\n"); err != nil {
		t.Fatal(err)
	}
	if err := src.SetString("public", "Order Deny,Allow\n"); err != nil {
		t.Fatal(err)
	}
	g := NewBaselineGuard(src, nil)
	if v := g.Check(rec("1.1.1.1", "")); v.Status.Kind != StatusAuthRequired {
		t.Errorf("root doc = %v, want AuthRequired", v.Status.Kind)
	}
	pub := rec("1.1.1.1", "")
	pub.Path = "/public/page.html"
	if v := g.Check(pub); v.Status.Kind != StatusOK {
		t.Errorf("public doc = %v, want OK (most specific wins)", v.Status.Kind)
	}
}

func TestBaselineGuardDeclinesWithoutHtaccess(t *testing.T) {
	g := NewBaselineGuard(NewMapHtaccessSource(), nil)
	if v := g.Check(rec("1.1.1.1", "")); v.Status.Kind != StatusDeclined {
		t.Errorf("no htaccess = %v, want Declined", v.Status.Kind)
	}
}

func TestDirHtaccessSource(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(rel, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(root, rel), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(".htaccess", "Order Deny,Allow\n")
	write("docs/.htaccess", "Require valid-user\n")

	src := NewDirHtaccessSource(root, ".htaccess")
	chain, err := src.For("/docs/file.html")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("chain = %d, want 2", len(chain))
	}

	// Cache serves the same parse for an unchanged file.
	again, err := src.For("/docs/file.html")
	if err != nil {
		t.Fatal(err)
	}
	if chain[1] != again[1] {
		t.Error("expected cached htaccess pointer")
	}

	// Changed file refreshes.
	write("docs/.htaccess", "Order Deny,Allow\nDeny from All\n")
	newTime := time.Now().Add(3 * time.Second)
	if err := os.Chtimes(filepath.Join(root, "docs/.htaccess"), newTime, newTime); err != nil {
		t.Fatal(err)
	}
	refreshed, err := src.For("/docs/file.html")
	if err != nil {
		t.Fatal(err)
	}
	if refreshed[1] == chain[1] {
		t.Error("stale htaccess after file change")
	}

	// Parse errors propagate.
	write("docs/.htaccess", "NotADirective x\n")
	newTime = newTime.Add(3 * time.Second)
	if err := os.Chtimes(filepath.Join(root, "docs/.htaccess"), newTime, newTime); err != nil {
		t.Fatal(err)
	}
	if _, err := src.For("/docs/file.html"); err == nil {
		t.Error("want parse error")
	}
	// And a guard surfaces them as Forbidden (fail closed).
	g := NewBaselineGuard(src, nil)
	r := rec("1.1.1.1", "")
	r.Path = "/docs/file.html"
	if v := g.Check(r); v.Status.Kind != StatusForbidden {
		t.Errorf("guard with broken htaccess = %v, want Forbidden", v.Status.Kind)
	}
}

func TestObjectDirsHTTPD(t *testing.T) {
	tests := []struct {
		object string
		want   []string
	}{
		{"/", []string{""}},
		{"/a/b/file", []string{"", "a", "a/b"}},
	}
	// The map source consults exactly the object's directories: every
	// one of them configured (and the leaf, which must not be read as a
	// directory) answers with the chain in order.
	src := NewMapHtaccessSource()
	for _, dir := range []string{"", "a", "a/b", "a/b/file", "c"} {
		src.Set(dir, &Htaccess{AuthName: dir})
	}
	for _, tt := range tests {
		chain, err := src.For(tt.object)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, h := range chain {
			got = append(got, h.AuthName)
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("For(%q) consulted %v, want %v", tt.object, got, tt.want)
		}
	}
	// Set normalizes the directory it is given to the same form.
	src.Set("/docs/", &Htaccess{})
	if got, want := src.Dirs(), []string{"", "a", "a/b", "a/b/file", "c", "docs"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Dirs() = %v, want %v", got, want)
	}
}

// TestDirHtaccessSourceEditGovernsNextRequest is gaa's
// TestEditGovernsNextRequest for the .htaccess twin: every way the file
// changes — at the root or in a nested directory, with no sleep — shows
// in the next For; a removed file is forgotten, not kept as a dead map
// entry; and a directory nobody edited keeps its parse by pointer.
func TestDirHtaccessSourceEditGovernsNextRequest(t *testing.T) {
	// Same length, so one can replace the other with only the mtime moving.
	const before, after, bigger = "AuthName old\n", "AuthName new\n", "AuthName new\n# and a byte more\n"
	write := func(t *testing.T, file, content string, mtime time.Time) {
		t.Helper()
		if err := os.WriteFile(file, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(file, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	t0 := time.Now().Add(-time.Hour).Truncate(time.Second)
	edits := []struct {
		name    string
		existed bool
		want    string // AuthName after the edit, "" = no file
		apply   func(t *testing.T, file string)
	}{
		{"create", false, "new", func(t *testing.T, file string) { write(t, file, after, t0) }},
		{"modify size", true, "new", func(t *testing.T, file string) { write(t, file, bigger, t0) }},
		{"modify mtime only", true, "new", func(t *testing.T, file string) { write(t, file, after, t0.Add(time.Second)) }},
		{"delete", true, "", func(t *testing.T, file string) {
			if err := os.Remove(file); err != nil {
				t.Fatal(err)
			}
		}},
		{"replace by rename", true, "new", func(t *testing.T, file string) {
			write(t, file+".tmp", after, t0.Add(time.Second))
			if err := os.Rename(file+".tmp", file); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, where := range []struct{ name, dir, object string }{
		{"root", "", "/page.html"},
		{"nested", "a/b", "/a/b/page.html"},
	} {
		for _, edit := range edits {
			t.Run(where.name+"/"+edit.name, func(t *testing.T) {
				root := t.TempDir()
				mkdirAll(t, filepath.Join(root, "a/b"))
				mkdirAll(t, filepath.Join(root, "other"))
				write(t, filepath.Join(root, "other/.htaccess"), before, t0)
				file := filepath.Join(root, where.dir, ".htaccess")
				files := 1
				if edit.existed {
					write(t, file, before, t0)
					files++
				}
				src := NewDirHtaccessSource(root, ".htaccess")
				innermost := func(object string) *Htaccess {
					t.Helper()
					chain, err := src.For(object)
					if err != nil {
						t.Fatalf("For(%s): %v", object, err)
					}
					if len(chain) == 0 {
						return nil
					}
					return chain[len(chain)-1]
				}
				if h := innermost(where.object); (h != nil) != edit.existed {
					t.Fatalf("before the edit: htaccess %v, want present=%v", h, edit.existed)
				}
				elsewhere := innermost("/other/page.html")
				if got := src.chain.Len(); got != files {
					t.Fatalf("source remembers %d files, %d exist", got, files)
				}

				edit.apply(t, file)

				got := ""
				if h := innermost(where.object); h != nil {
					got = h.AuthName
				}
				if got != edit.want {
					t.Errorf("the lookup after the edit answers AuthName %q, want %q", got, edit.want)
				}
				if innermost("/other/page.html") != elsewhere {
					t.Error("other/.htaccess was parsed again after an edit somewhere else")
				}
				if edit.want == "" {
					files--
				} else if !edit.existed {
					files++
				}
				if got := src.chain.Len(); got != files {
					t.Errorf("source remembers %d files after the edit, %d exist", got, files)
				}
			})
		}
	}
}
