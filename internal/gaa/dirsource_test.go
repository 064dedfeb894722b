package gaa

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/eacl"
)

// policyTree is a generated policy tree on disk: its root, and every
// directory a path can name under it, links included ("" the root).
type policyTree struct {
	root  string
	dirs  []string
	files int // policy files written, each reachable
}

// policyTreeNames are the directory names trees are built from: glob
// metacharacters among them, which a directory name spells literally.
var policyTreeNames = []string{"a", "b", "docs", "*", "?", "[", "a*", "x?y", "[ab]"}

// genPolicyTree builds a seeded tree: up to three levels, up to three
// subdirectories each, half of the directories holding a .eacl whose
// right names the file, then one symlinked directory, one symlinked
// .eacl (to a file outside the tree) and one dangling link of each
// kind. Seed 0 is an empty root; seed 1 has directories and no file.
func genPolicyTree(t *testing.T, seed uint64) policyTree {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 67))
	tr := policyTree{root: t.TempDir(), dirs: []string{""}}
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
		names := slices.Clone(policyTreeNames)
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

// objects are the objects asked about a tree: in, below, beside
// and naming each directory, with a trailing slash, and spelt with "."
// and "..".
func (tr policyTree) objects() []string {
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

// TestDirSourceMatchesLiveWalk: over generated trees, the tree a load
// parses returns, for every object, the files DirChain's live walk finds
// on disk, in the same order.
func TestDirSourceMatchesLiveWalk(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		tr := genPolicyTree(t, seed)
		d := NewDirSource(tr.root, ".eacl")
		all, err := d.Files()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		live := NewDirChain(tr.root, ".eacl", eacl.ParseFile)
		for _, object := range tr.objects() {
			want, err := live.Walk(object)
			if err != nil {
				t.Fatalf("seed %d: Walk(%q): %v", seed, object, err)
			}
			got, _ := d.Policies(object)
			if g, w := chainText(got), chainText(want); !slices.Equal(g, w) {
				t.Errorf("seed %d: Policies(%q) = %q, the live walk finds %q", seed, object, g, w)
			}
		}
		// Every file is analyzed, each once however many paths reach it.
		if len(all) != tr.files {
			t.Errorf("seed %d: analysis sees %d files, the tree holds %d", seed, len(all), tr.files)
		}
		if rev, _ := d.Revision("/a/b"); rev != "loaded" {
			t.Errorf("seed %d: Revision = %q", seed, rev)
		}
	}
}

// TestDirSourceRefusesWhatItCannotHold: a link back up the tree names
// endless paths and a policy file that cannot be parsed governs
// something, so both fail the load rather than serving without them,
// and a source whose load failed answers every object with the failure.
func TestDirSourceRefusesWhatItCannotHold(t *testing.T) {
	root := t.TempDir()
	mkdir(t, filepath.Join(root, "a", "b"))
	if err := os.Symlink(root, filepath.Join(root, "a", "b", "up")); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDirSource(root, ".eacl").Files(); err == nil || !strings.Contains(err.Error(), "own path") {
		t.Errorf("link to the root: err = %v, want a refusal", err)
	}
	root = t.TempDir()
	writeFile(t, filepath.Join(root, ".eacl"), "not an eacl")
	d := NewDirSource(root, ".eacl")
	if _, err := d.Files(); err == nil {
		t.Error("unparsable .eacl loaded")
	}
	for _, object := range []string{"/", "/index.html", "/a/b/c"} {
		if got, err := d.Policies(object); err == nil || got != nil {
			t.Errorf("failed load: Policies(%q) = %d files, %v; want the load's error", object, len(got), err)
		}
	}
	if _, err := NewDirSource(filepath.Join(root, "absent"), ".eacl").Files(); err == nil {
		t.Error("absent root loaded")
	}
}

// TestDirSourceBoundsLinkedDirectories: links that fork and meet below
// name 2^k paths through k directories, so past maxDirLinks followed
// links the load fails, naming the link, as fast as a loop does. Real
// directories are never counted: a tree of more directories than the
// bound, and no link, loads.
func TestDirSourceBoundsLinkedDirectories(t *testing.T) {
	const k = 24
	root := t.TempDir()
	writeFile(t, filepath.Join(root, ".eacl"), "pos_access_right apache *\n")
	for i := 0; i < k; i++ {
		mkdir(t, filepath.Join(root, "d"+strconv.Itoa(i)))
	}
	for i := 0; i+1 < k; i++ {
		next := filepath.Join(root, "d"+strconv.Itoa(i+1))
		for _, name := range []string{"x", "y"} {
			if err := os.Symlink(next, filepath.Join(root, "d"+strconv.Itoa(i), name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	start := time.Now()
	_, err := NewDirSource(root, ".eacl").Files()
	if err == nil || !strings.Contains(err.Error(), "symlinked directories") || !strings.Contains(err.Error(), root) {
		t.Errorf("a %d-level DAG of linked directories: err = %v, want the bound's refusal naming the link", k, err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("the refusal took %v", took)
	}

	root = t.TempDir()
	for i := 0; i <= maxDirLinks; i++ {
		mkdir(t, filepath.Join(root, "d"+strconv.Itoa(i%16), "e"+strconv.Itoa(i)))
	}
	writeFile(t, filepath.Join(root, "d3", "e3", ".eacl"), "pos_access_right apache *\n")
	d := NewDirSource(root, ".eacl")
	if all, err := d.Files(); err != nil || len(all) != 1 {
		t.Fatalf("%d real directories and no link: %d files, %v", maxDirLinks+16, len(all), err)
	}
	if got, _ := d.Policies("/d3/e3/page.html"); len(got) != 1 {
		t.Errorf("Policies under d3/e3 = %d files, want 1", len(got))
	}
}

// TestDirSourcePathThroughDocument: an object whose path runs through
// a document names no directory there. The live walk fails the lookup on
// the ENOTDIR its stat meets; the loaded tree answers as for an absent
// directory, as the document root does.
func TestDirSourcePathThroughDocument(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, ".eacl"), "pos_access_right apache *\n")
	writeFile(t, filepath.Join(root, "index.html"), "home")
	d := NewDirSource(root, ".eacl")
	if _, err := d.Files(); err != nil {
		t.Fatal(err)
	}
	want, _ := d.Policies("/missing/x")
	got, err := d.Policies("/index.html/x")
	if err != nil || !slices.Equal(got, want) || len(got) != 1 {
		t.Errorf("loaded tree: %d files, err %v; want the root's, as for an absent directory", len(got), err)
	}
	if _, err := NewDirChain(root, ".eacl", eacl.ParseFile).Walk("/index.html/x"); err == nil {
		t.Error("the live walk now answers a path through a document: DirSource's comment is stale")
	}
}
