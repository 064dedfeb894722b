package gaa

import (
	"errors"
	"io/fs"
	"os"
	"path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DirChain looks one file name up in every directory on the path to an
// object, the way Apache looks for .htaccess "in every directory of the
// path to the document" (paper section 4), and remembers the parse of
// each file that exists: the lookup behind DirSource, FileSource and
// httpd.DirHtaccessSource. Every call stats every directory, so an
// edited file governs the very next lookup; a file is the same while its
// presence, mtime (ns) and size are. Revision counts the changes walks
// have observed, so an edit makes every composition cached from the
// chain stale once; recomposing reuses the unchanged parses by pointer.
type DirChain[T any] struct {
	prefix string // the root directory up to and including its separator
	name   string
	root   string // prefix + name, the root directory's file
	parse  func(file string) (*T, error)
	stat   func(file string) (fs.FileInfo, error) // os.Stat; tests count the calls

	mu      sync.Mutex               // never held across a stat or a parse
	nodes   map[string]*chainNode[T] // by directory under the root; files that exist, nothing else
	changes int
	rev     atomic.Pointer[string]
}

type chainNode[T any] struct {
	file  string // built once, when the file is first seen
	mtime int64
	size  int64
	value *T
}

// NewDirChain returns a chain for the files called name under root.
func NewDirChain[T any](root, name string, parse func(file string) (*T, error)) *DirChain[T] {
	prefix := path.Join(root, "x") // cleaned; "x" when root is the working directory
	prefix = prefix[:len(prefix)-1]
	c := &DirChain[T]{prefix: prefix, name: name, root: prefix + name, parse: parse, stat: os.Stat, nodes: make(map[string]*chainNode[T])}
	c.changed()
	return c
}

// Walk returns the parsed file of every directory on the path to object
// that has one, outermost first.
func (c *DirChain[T]) Walk(object string) (out []*T, err error) {
	err = EachDir(object, func(dir string) error {
		v, err := c.lookup(dir)
		if v != nil {
			out = append(out, v)
		}
		return err
	})
	return out, err
}

// Revision walks like Walk and returns the change counter: while it
// reads the same, no walk has seen a file of the chain change.
func (c *DirChain[T]) Revision(object string) (string, error) {
	err := EachDir(object, func(dir string) error {
		_, err := c.lookup(dir)
		return err
	})
	return *c.rev.Load(), err
}

// Len reports how many files the chain remembers (tests, diagnostics).
func (c *DirChain[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// lookup stats dir's file and returns its parse, nil when there is no
// file. The remembered parse is reused while the stat agrees with it.
func (c *DirChain[T]) lookup(dir string) (*T, error) {
	c.mu.Lock()
	node := c.nodes[dir]
	c.mu.Unlock()
	file := c.root
	if node != nil {
		file = node.file
	} else if dir != "" {
		file = c.prefix + dir + "/" + c.name
	}
	fi, err := c.stat(file)
	if err == nil {
		mtime, size := fi.ModTime().UnixNano(), fi.Size()
		if node != nil && node.mtime == mtime && node.size == size {
			return node.value, nil
		}
		var v *T
		if v, err = c.parse(file); err == nil {
			c.mu.Lock()
			defer c.mu.Unlock()
			// A concurrent walk that parsed this version first wins: one
			// version is one pointer (compiled units are keyed by it).
			if cur := c.nodes[dir]; cur != nil && cur.mtime == mtime && cur.size == size {
				return cur.value, nil
			}
			dir = strings.Clone(dir) // it is a slice of some request's object
			c.nodes[dir] = &chainNode[T]{file: file, mtime: mtime, size: size, value: v}
			c.changed()
			return v, nil
		}
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	// Absent, or removed between the stat and the parse's open. Nothing is
	// remembered for it: probing random directories must not grow the map.
	if node != nil {
		c.mu.Lock()
		if c.nodes[dir] == node {
			delete(c.nodes, dir)
			c.changed()
		}
		c.mu.Unlock()
	}
	return nil, nil
}

// changed publishes the next revision; the caller holds c.mu.
func (c *DirChain[T]) changed() {
	rev := "dir-" + strconv.Itoa(c.changes)
	c.changes++
	c.rev.Store(&rev)
}

// CleanObject returns object as a rooted path without "." and ".."
// segments; one that already is comes back as is, unallocated.
func CleanObject(object string) string {
	if object == "" || object[0] != '/' {
		object = "/" + object
	}
	return path.Clean(object)
}

// EachDir calls visit with every directory on the path to object,
// outermost first: "", "a", "a/b" for "/a/b/page.html" (the last component
// is a leaf, as in Apache), each a slice of the cleaned object, until a
// visit fails.
func EachDir(object string, visit func(dir string) error) error {
	object = CleanObject(object)
	err := visit("")
	for i := 1; i < len(object) && err == nil; i++ {
		if object[i] == '/' {
			err = visit(object[1:i])
		}
	}
	return err
}
