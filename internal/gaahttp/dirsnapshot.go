package gaahttp

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
)

// dirSnapshot is a per-directory .eacl tree as one load read it: the
// source gaa-httpd's guard serves for LocalPolicyDir. It answers as
// gaa.DirSource answered at that moment (the files of the directories on
// an object's path, outermost first; directory names literal; symlinks
// followed as os.Stat follows them) and never touches the disk again, so
// a request stats no policy file and an edit is served only once a
// reload has analyzed it and swapped the next snapshot in.
type dirSnapshot struct {
	// chains holds, for each directory under the root that has a file
	// ("" is the root), the files on its path: the chain of any object
	// is that of the deepest such directory on the object's path. Each
	// is built at load with its capacity clipped, and handed out as is.
	chains map[string][]*eacl.EACL
}

// Policies implements gaa.PolicySource: one map read per directory on
// the path, no allocation.
func (s *dirSnapshot) Policies(object string) (chain []*eacl.EACL, _ error) {
	gaa.EachDir(object, func(dir string) error {
		if c, ok := s.chains[dir]; ok {
			chain = c
		}
		return nil
	})
	return chain, nil
}

// Revision implements gaa.PolicySource: a snapshot never changes; the
// swap that replaces it bumps the generation in front of this.
func (*dirSnapshot) Revision(string) (string, error) { return "snapshot", nil }

// snapshotDir parses every .eacl under root into a dirSnapshot, and
// returns the files in walk order for analysis, each once however many
// paths reach it. A file or directory it cannot read, and a symlink back
// to a directory on its own path (whose paths have no end), fail the
// load: a policy the walk missed would fail open.
func snapshotDir(root string) (*dirSnapshot, []*eacl.EACL, error) {
	s := &dirSnapshot{chains: make(map[string][]*eacl.EACL)}
	var all []*eacl.EACL
	parsed := make(map[string]*eacl.EACL) // by resolved path: a file linked twice is one policy
	parse := func(file string) (*eacl.EACL, error) {
		real, err := filepath.EvalSymlinks(file)
		if err != nil {
			return nil, err
		}
		e := parsed[real]
		if e == nil {
			if e, err = eacl.ParseFile(real); err != nil {
				return nil, err
			}
			parsed[real] = e
			all = append(all, e)
		}
		return e, nil
	}
	var walk func(dir, disk string, chain []*eacl.EACL, path []fs.FileInfo) error
	walk = func(dir, disk string, chain []*eacl.EACL, path []fs.FileInfo) error {
		file := filepath.Join(disk, ".eacl")
		switch e, err := parse(file); {
		case err == nil:
			chain = append(chain[:len(chain):len(chain)], e)
			s.chains[dir] = chain
		case !errors.Is(err, fs.ErrNotExist): // absent or a dangling link: no file here
			return fmt.Errorf("local policy %s: %w", file, err)
		}
		entries, err := os.ReadDir(disk)
		if err != nil {
			return fmt.Errorf("local policy dir: %w", err)
		}
		for _, d := range entries {
			if !d.IsDir() && d.Type()&fs.ModeSymlink == 0 {
				continue
			}
			sub := filepath.Join(disk, d.Name())
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
			name := d.Name()
			if dir != "" {
				name = dir + "/" + name
			}
			if err := walk(name, sub, chain, append(path[:len(path):len(path)], fi)); err != nil {
				return err
			}
		}
		return nil
	}
	fi, err := os.Stat(root)
	if err != nil {
		return nil, nil, fmt.Errorf("local policy dir: %w", err)
	}
	if err := walk("", root, nil, []fs.FileInfo{fi}); err != nil {
		return nil, nil, err
	}
	return s, all, nil
}
