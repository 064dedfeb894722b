package gaahttp

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
)

// snapTree is a generated policy tree on disk: its root, and every
// directory a path can name under it, links included ("" the root).
type snapTree struct {
	root  string
	dirs  []string
	files int // policy files written, each reachable
}

// snapNames are the directory names trees are built from: glob
// metacharacters among them, which a directory name spells literally.
var snapNames = []string{"a", "b", "docs", "*", "?", "[", "a*", "x?y", "[ab]"}

// genSnapTree builds a seeded tree: up to three levels, up to three
// subdirectories each, half of the directories holding a .eacl whose
// right names the file, then one symlinked directory, one symlinked
// .eacl (to a file outside the tree) and one dangling link of each
// kind. Seed 0 is an empty root; seed 1 has directories and no file.
func genSnapTree(t *testing.T, seed uint64) snapTree {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 67))
	tr := snapTree{root: t.TempDir(), dirs: []string{""}}
	disk := func(dir string) string { return filepath.Join(tr.root, filepath.FromSlash(dir)) }
	write := func(name string) {
		tr.files++
		if err := os.WriteFile(name, []byte(fmt.Sprintf("pos_access_right apache f%d\n", tr.files)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if seed == 0 {
		return tr
	}
	var grow func(dir string, depth int)
	grow = func(dir string, depth int) {
		if seed > 1 && rng.IntN(2) == 0 {
			write(filepath.Join(disk(dir), ".eacl"))
		}
		if depth == 3 {
			return
		}
		names := slices.Clone(snapNames)
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		for _, name := range names[:rng.IntN(4)] {
			sub := strings.TrimPrefix(dir+"/"+name, "/")
			if err := os.Mkdir(disk(sub), 0o755); err != nil {
				t.Fatal(err)
			}
			tr.dirs = append(tr.dirs, sub)
			grow(sub, depth+1)
		}
	}
	grow("", 0)
	if seed == 1 {
		return tr
	}
	real := slices.Clone(tr.dirs)
	symlink := func(target, link string) {
		if err := os.Symlink(target, link); err != nil {
			t.Fatal(err)
		}
	}
	// A link in parent to a directory that is not parent or above it.
	parent, target := real[rng.IntN(len(real))], real[rng.IntN(len(real))]
	if target != "" && !strings.HasPrefix(parent+"/", target+"/") {
		link := strings.TrimPrefix(parent+"/ln", "/")
		symlink(disk(target), disk(link))
		for _, d := range real {
			if d == target || strings.HasPrefix(d, target+"/") {
				tr.dirs = append(tr.dirs, link+strings.TrimPrefix(d, target))
			}
		}
	}
	symlink(disk("nowhere"), filepath.Join(disk(real[rng.IntN(len(real))]), "dangling"))
	for _, d := range real {
		if _, err := os.Lstat(filepath.Join(disk(d), ".eacl")); os.IsNotExist(err) {
			outside := filepath.Join(t.TempDir(), "policy")
			write(outside)
			symlink(outside, filepath.Join(disk(d), ".eacl"))
			break
		}
	}
	for _, d := range real {
		if _, err := os.Lstat(filepath.Join(disk(d), ".eacl")); os.IsNotExist(err) {
			symlink(disk("nowhere"), filepath.Join(disk(d), ".eacl"))
			break
		}
	}
	return tr
}

// snapObjects are the objects asked about a tree: in, below, beside
// and naming each directory, with a trailing slash, and spelt with "."
// and "..".
func (tr snapTree) objects() []string {
	out := []string{"", "/", "/page.html", "/missing/x.html", "/*/x.html", "/[/x.html"}
	for _, d := range tr.dirs[1:] {
		out = append(out, "/"+d, "/"+d+"/", "/"+d+"/page.html", "/"+d+"/missing/x.html",
			"/"+d+"/./page.html", "/"+d+"/../page.html", "//"+d+"//page.html")
	}
	return out
}

func chainText(es []*eacl.EACL) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.String()
	}
	return out
}

// TestDirSnapshotMatchesDirSource: over generated trees, the snapshot a
// load builds returns, for every object, the files gaa.DirSource finds
// on disk, in the same order.
func TestDirSnapshotMatchesDirSource(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		tr := genSnapTree(t, seed)
		snap, all, err := snapshotDir(tr.root)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		live := gaa.NewDirSource(tr.root, ".eacl")
		for _, object := range tr.objects() {
			want, err := live.Policies(object)
			if err != nil {
				t.Fatalf("seed %d: DirSource(%q): %v", seed, object, err)
			}
			got, _ := snap.Policies(object)
			if g, w := chainText(got), chainText(want); !slices.Equal(g, w) {
				t.Errorf("seed %d: Policies(%q) = %q, DirSource finds %q", seed, object, g, w)
			}
		}
		// Every file is analyzed, each once however many paths reach it.
		if len(all) != tr.files {
			t.Errorf("seed %d: analysis sees %d files, the tree holds %d", seed, len(all), tr.files)
		}
		if rev, _ := snap.Revision("/a/b"); rev != "snapshot" {
			t.Errorf("seed %d: Revision = %q", seed, rev)
		}
	}
}

// TestDirSnapshotRefusesWhatItCannotHold: a link back up the tree names
// endless paths and a policy file that cannot be parsed governs
// something, so both fail the load rather than serving without them.
func TestDirSnapshotRefusesWhatItCannotHold(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "a", "b"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(root, filepath.Join(root, "a", "b", "up")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := snapshotDir(root); err == nil || !strings.Contains(err.Error(), "own path") {
		t.Errorf("link to the root: err = %v, want a refusal", err)
	}
	root = t.TempDir()
	if err := os.WriteFile(filepath.Join(root, ".eacl"), []byte("not an eacl"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := snapshotDir(root); err == nil {
		t.Error("unparsable .eacl loaded")
	}
	if _, _, err := snapshotDir(filepath.Join(root, "absent")); err == nil {
		t.Error("absent root loaded")
	}
}

// TestDirSnapshotPathThroughDocument: an object whose path runs through
// a document names no directory there. DirSource fails the lookup on
// the ENOTDIR its stat meets, so the guard answers 403 and counts the
// request as degraded; the snapshot answers as for an absent directory,
// as the document root does.
func TestDirSnapshotPathThroughDocument(t *testing.T) {
	root := t.TempDir()
	for name, content := range map[string]string{".eacl": allowAll, "index.html": "home"} {
		if err := os.WriteFile(filepath.Join(root, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snap, _, err := snapshotDir(root)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := snap.Policies("/missing/x")
	got, err := snap.Policies("/index.html/x")
	if err != nil || !slices.Equal(got, want) || len(got) != 1 {
		t.Errorf("snapshot: %d files, err %v; want the root's, as for an absent directory", len(got), err)
	}
	if _, err := gaa.NewDirSource(root, ".eacl").Policies("/index.html/x"); err == nil {
		t.Error("DirSource now answers a path through a document: the snapshot's comment is stale")
	}
}
