package httpd

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path"
	"strings"
	"syscall"

	"gaaapi/internal/gaa"
)

// FileRoot resolves URL paths to static document content. The server
// falls back to its in-memory DocRoot map when no FileRoot is
// configured.
type FileRoot interface {
	// Open returns the content for the cleaned URL path, or ok=false
	// when no document exists there.
	Open(urlPath string) (content string, ok bool, err error)
}

// MapRoot adapts the in-memory path→content map. Paths ending in "/"
// resolve to their index.html.
type MapRoot map[string]string

var _ FileRoot = MapRoot(nil)

// Open implements FileRoot.
func (m MapRoot) Open(urlPath string) (string, bool, error) {
	p := cleanURLPath(urlPath)
	if strings.HasSuffix(urlPath, "/") {
		p = path.Join(p, "index.html")
	}
	content, ok := m[p]
	if !ok && p == "/" {
		content, ok = m["/index.html"]
	}
	return content, ok, nil
}

// OSRoot serves documents from a directory on disk, confined to that
// directory (the URL path is cleaned before joining, so ".."
// traversal cannot escape). Directory requests resolve to index.html.
type OSRoot struct {
	dir string // cleaned, without a trailing separator
}

var _ FileRoot = (*OSRoot)(nil)

// NewOSRoot returns a disk-backed root.
func NewOSRoot(dir string) *OSRoot {
	return &OSRoot{dir: strings.TrimSuffix(path.Clean(dir), "/")}
}

// Open implements FileRoot. The file is opened once and both its kind
// and its content are read from that handle, so a document replaced
// mid-request is served as it was or as it is, never as an error.
func (r *OSRoot) Open(urlPath string) (string, bool, error) {
	full := r.dir + gaa.CleanObject(urlPath)
	content, isDir, err := readDocument(full)
	if isDir {
		content, _, err = readDocument(full + "/index.html")
	}
	// ENOTDIR: a component of the path is (or just became) a document.
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, syscall.ENOTDIR) {
		return "", false, nil
	}
	return content, err == nil, err
}

// readDocument reads the file at name, or reports that it is a directory.
func readDocument(name string) (content string, isDir bool, err error) {
	f, err := os.Open(name)
	if err != nil {
		return "", false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || fi.IsDir() {
		return "", err == nil, err
	}
	data := make([]byte, fi.Size())
	n, err := io.ReadFull(f, data)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		err = nil // truncated since the stat: serve what is there
	}
	return string(data[:n]), false, err
}

// cleanURLPath normalizes a URL path, forcing it absolute and
// eliminating "." / ".." segments.
func cleanURLPath(p string) string {
	return path.Clean("/" + p)
}
