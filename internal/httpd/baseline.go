package httpd

import (
	"os"
	"sync"

	"gaaapi/internal/gaa"
)

// HtaccessSource supplies the .htaccess chain governing an object,
// outermost directory first — Apache "looks for an access control file
// called .htaccess in every directory of the path to the document"
// (paper section 4).
type HtaccessSource interface {
	For(object string) ([]*Htaccess, error)
}

// MapHtaccessSource is an in-memory source mapping directory paths
// ("", "docs", "docs/private") to htaccess configurations.
type MapHtaccessSource struct {
	mu      sync.RWMutex
	entries map[string]*Htaccess
}

// NewMapHtaccessSource returns an empty in-memory source.
func NewMapHtaccessSource() *MapHtaccessSource {
	return &MapHtaccessSource{entries: make(map[string]*Htaccess)}
}

// Set installs the htaccess for a directory ("" is the document root).
func (m *MapHtaccessSource) Set(dir string, h *Htaccess) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries[gaa.CleanObject(dir)[1:]] = h
}

// SetString parses src and installs it for dir.
func (m *MapHtaccessSource) SetString(dir, src string) error {
	h, err := ParseHtaccessString(src)
	if err != nil {
		return err
	}
	m.Set(dir, h)
	return nil
}

// For implements HtaccessSource.
func (m *MapHtaccessSource) For(object string) ([]*Htaccess, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []*Htaccess
	gaa.EachDir(object, func(dir string) error {
		if h, ok := m.entries[dir]; ok {
			out = append(out, h)
		}
		return nil
	})
	return out, nil
}

// DirHtaccessSource reads .htaccess files under a document root on
// disk through gaa.DirChain's live walk, as Apache reads them on every
// request: one stat per directory per call, a parse remembered only
// while its file exists unchanged.
type DirHtaccessSource struct {
	chain *gaa.DirChain[Htaccess]
}

// NewDirHtaccessSource returns a source for files called name (e.g.
// ".htaccess") under root.
func NewDirHtaccessSource(root, name string) *DirHtaccessSource {
	return &DirHtaccessSource{chain: gaa.NewDirChain(root, name, parseHtaccessFile)}
}

// For implements HtaccessSource.
func (d *DirHtaccessSource) For(object string) ([]*Htaccess, error) {
	return d.chain.Walk(object)
}

func parseHtaccessFile(file string) (*Htaccess, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	return ParseHtaccessString(string(data))
}

// BaselineGuard is Apache's native access control as a server guard:
// the innermost (most specific) .htaccess decides; with none present
// the guard declines and the server default applies. This models the
// paper's translation target for MAYBE answers: "HTTP_DECLINED" hands
// the decision back to the stock mechanism.
type BaselineGuard struct {
	source HtaccessSource
	loader FileLoader
}

// NewBaselineGuard builds the guard; a nil loader uses os.ReadFile.
func NewBaselineGuard(source HtaccessSource, loader FileLoader) *BaselineGuard {
	if loader == nil {
		loader = os.ReadFile
	}
	return &BaselineGuard{source: source, loader: loader}
}

// Check implements Guard. Divergence from Apache noted: Apache merges
// directives along the directory chain; this substrate lets the most
// specific file decide entirely, which is indistinguishable for the
// paper's workloads (one file per protected subtree).
func (b *BaselineGuard) Check(rec *RequestRec) Verdict {
	chain, err := b.source.For(rec.Object())
	if err != nil {
		return Verdict{Status: Forbidden("htaccess error: " + err.Error())}
	}
	if len(chain) == 0 {
		return Verdict{Status: Declined("no htaccess")}
	}
	h := chain[len(chain)-1]
	return Verdict{Status: h.Evaluate(rec, b.loader)}
}
