package gaa

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"gaaapi/internal/eacl"
)

// maxDirLinks bounds the symlinked directories one load follows: links
// that fork and meet below name exponentially many paths, so past it the
// load fails as a loop does. Real directories are not counted.
const maxDirLinks = 256

// DirSource maps objects (slash-separated paths) to the per-directory
// policy files one load read: for "/a/b/page.html" with name ".eacl",
// <root>/.eacl, <root>/a/.eacl and <root>/a/b/.eacl in that order, as
// Apache looks for .htaccess (paper section 4). Directory names are
// literal and symlinks are followed as os.Stat follows them. A request
// stats no policy file: an edit is served by the next load, which a
// reload analyzes and swaps in.
type DirSource struct {
	// chains holds, for each directory under the root that has a file
	// ("" is the root), the files on its path: the chain of any object
	// is that of the deepest such directory on the object's path. Each
	// is built at load with its capacity clipped, and handed out as is.
	chains map[string][]*eacl.EACL
	files  []*eacl.EACL // walk order, each once however many paths reach it
	err    error
}

// NewDirSource loads every file called name under root. An absent root,
// a file or directory it cannot read, and a symlink back to a directory
// on its own path fail the load, since a policy the walk missed would
// fail open; Policies then answers every object with the failure.
func NewDirSource(root, name string) *DirSource {
	d := &DirSource{chains: make(map[string][]*eacl.EACL)}
	d.err = d.load(root, name)
	return d
}

// Files returns the parsed files in walk order, for analysis, and the
// load's error.
func (d *DirSource) Files() ([]*eacl.EACL, error) { return d.files, d.err }

// Policies implements PolicySource: one map read per directory on the
// path, no allocation.
func (d *DirSource) Policies(object string) (chain []*eacl.EACL, _ error) {
	if d.err != nil {
		return nil, d.err
	}
	EachDir(object, func(dir string) error {
		if c, ok := d.chains[dir]; ok {
			chain = c
		}
		return nil
	})
	return chain, nil
}

// Revision implements PolicySource: a loaded tree never changes; the
// swap that replaces it bumps the generation in front of this.
func (*DirSource) Revision(string) (string, error) { return "loaded", nil }

func (d *DirSource) load(root, name string) error {
	parsed := make(map[string]*eacl.EACL) // by resolved path: a file linked twice is one policy
	links := 0
	var walk func(dir, disk string, chain []*eacl.EACL, path []fs.FileInfo) error
	walk = func(dir, disk string, chain []*eacl.EACL, path []fs.FileInfo) error {
		file := filepath.Join(disk, name)
		real, err := filepath.EvalSymlinks(file)
		e := parsed[real]
		if err == nil && e == nil {
			if e, err = eacl.ParseFile(real); err == nil {
				parsed[real] = e
				d.files = append(d.files, e)
			}
		}
		switch {
		case err == nil:
			chain = append(chain[:len(chain):len(chain)], e)
			d.chains[dir] = chain
		case !errors.Is(err, fs.ErrNotExist): // absent or a dangling link: no file here
			return fmt.Errorf("local policy %s: %w", file, err)
		}
		entries, err := os.ReadDir(disk)
		if err != nil {
			return fmt.Errorf("local policy dir: %w", err)
		}
		for _, de := range entries {
			link := de.Type()&fs.ModeSymlink != 0
			if !de.IsDir() && !link {
				continue
			}
			sub := filepath.Join(disk, de.Name())
			fi, err := os.Stat(sub)
			if errors.Is(err, fs.ErrNotExist) || err == nil && !fi.IsDir() {
				continue // a dangling link, or a link to a document
			} else if err != nil {
				return fmt.Errorf("local policy dir: %w", err)
			}
			for _, up := range path {
				if os.SameFile(fi, up) {
					return fmt.Errorf("local policy dir: %s links to a directory on its own path", sub)
				}
			}
			if link {
				if links++; links > maxDirLinks {
					return fmt.Errorf("local policy dir: %s is past the %d symlinked directories a load follows", sub, maxDirLinks)
				}
			}
			next := de.Name()
			if dir != "" {
				next = dir + "/" + next
			}
			if err := walk(next, sub, chain, append(path[:len(path):len(path)], fi)); err != nil {
				return err
			}
		}
		return nil
	}
	fi, err := os.Stat(root)
	if err != nil {
		return fmt.Errorf("local policy dir: %w", err)
	}
	return walk("", root, nil, []fs.FileInfo{fi})
}
