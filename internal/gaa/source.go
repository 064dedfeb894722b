package gaa

import (
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"gaaapi/internal/eacl"
)

// PolicySource supplies the EACLs governing an object. Sources are
// consulted at access-control time (paper section 6, step 2a); the API
// composes system-wide sources ahead of local ones.
//
// The policy cache does not coalesce concurrent misses: every miss calls
// Policies, and N requests missing on one object at once call it N
// times. A source that parses policy text must therefore memoize the
// parse (as MemorySource, FileSource and DirSource do) and hand back
// the same *eacl.EACL until its content changes; compiled decision
// units are keyed by that pointer.
type PolicySource interface {
	// Policies returns the EACLs governing object, in priority order.
	// A source with nothing to say returns an empty slice. The slice is
	// the caller's: the source does not write to it again (composition
	// adopts it instead of copying).
	Policies(object string) ([]*eacl.EACL, error)
	// Revision identifies the current content version for the object;
	// the policy cache invalidates when it changes. Implementations
	// may return a constant if they never change.
	Revision(object string) (string, error)
}

// MemorySource is an in-memory policy source mapping object glob
// patterns to EACLs. It is safe for concurrent use: readers load an
// immutable snapshot through an atomic pointer (no lock, no
// formatting), writers serialize on a mutex and publish a new
// snapshot with a pre-formatted revision string.
type MemorySource struct {
	mu    sync.Mutex // writers only
	state atomic.Pointer[memState]
}

type memState struct {
	entries []memEntry
	rev     int
	revStr  string
	// trie indexes the entries' patterns by entry position. It is built
	// by the first Policies on this state, so a run of Adds (each of
	// which publishes a state) indexes nothing.
	index sync.Once
	trie  globTrie
}

type memEntry struct {
	pattern string
	eacl    *eacl.EACL
}

// NewMemorySource returns an empty in-memory source.
func NewMemorySource() *MemorySource {
	m := &MemorySource{}
	m.state.Store(&memState{revStr: "mem-0"})
	return m
}

// Add registers an EACL for every object matching pattern ('*' glob).
func (m *MemorySource) Add(pattern string, e *eacl.EACL) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.state.Load()
	next := &memState{
		entries: make([]memEntry, 0, len(old.entries)+1),
		rev:     old.rev + 1,
	}
	next.entries = append(next.entries, old.entries...)
	next.entries = append(next.entries, memEntry{pattern: pattern, eacl: e})
	next.revStr = "mem-" + strconv.Itoa(next.rev)
	m.state.Store(next)
}

// AddPolicy parses src and registers it under pattern.
func (m *MemorySource) AddPolicy(pattern, src string) error {
	e, err := eacl.ParseString(src)
	if err != nil {
		return err
	}
	m.Add(pattern, e)
	return nil
}

// Policies implements PolicySource: one trie walk over object, then the
// matched entries in insertion order — the cost of what matched, not of
// every pattern registered.
func (m *MemorySource) Policies(object string) ([]*eacl.EACL, error) {
	st := m.state.Load()
	st.index.Do(func() {
		for i, en := range st.entries {
			st.trie.insert(en.pattern, int32(i))
		}
	})
	var buf [32]uint64 // up to 2048 patterns without leaving the stack
	matched := growBits(buf[:0], len(st.entries))
	st.trie.match(object, matched)
	var out []*eacl.EACL
	for w, word := range matched {
		for ; word != 0; word &= word - 1 {
			out = append(out, st.entries[w<<6|bits.TrailingZeros64(word)].eacl)
		}
	}
	return out, nil
}

// Revision implements PolicySource. The revision string is formatted
// once per mutation, not per request, so revision checks on the cache
// hit path are allocation-free.
func (m *MemorySource) Revision(string) (string, error) {
	return m.state.Load().revStr, nil
}

// FileSource reads one policy file that governs every object (the
// paper's system-wide policy file): the one-directory case of DirChain.
type FileSource struct {
	chain *DirChain[eacl.EACL]
}

// NewFileSource returns a source backed by the policy file at path.
// A missing file is not an error: the source simply supplies nothing,
// so deployments without a system-wide policy work unchanged.
func NewFileSource(path string) *FileSource {
	return &FileSource{NewDirChain("", path, eacl.ParseFile)}
}

// Policies implements PolicySource.
func (f *FileSource) Policies(string) ([]*eacl.EACL, error) {
	return f.chain.Walk("")
}

// Revision implements PolicySource.
func (f *FileSource) Revision(string) (string, error) {
	if e, err := f.chain.lookup(""); e == nil {
		return "absent", err
	}
	return *f.chain.rev.Load(), nil
}

// DirSource maps objects (slash-separated paths) to per-directory
// policy files: for "/a/b/page.html" with name ".eacl", <root>/.eacl,
// <root>/a/.eacl and <root>/a/b/.eacl in that order (see DirChain).
type DirSource struct {
	*DirChain[eacl.EACL]
}

// NewDirSource returns a per-directory policy source rooted at root,
// looking for files called name.
func NewDirSource(root, name string) *DirSource {
	return &DirSource{NewDirChain(root, name, eacl.ParseFile)}
}

// Policies implements PolicySource.
func (d *DirSource) Policies(object string) ([]*eacl.EACL, error) {
	return d.Walk(object)
}
