package httpd

import (
	"errors"
	"io/fs"
	"path"
	"strings"
	"syscall"

	"gaaapi/internal/gaa"
)

// objectPath names the one document a decoded URL path addresses, as
// Apache's ap_getparents and mod_dir settle it before any access hook:
// dot segments and repeated slashes go, and a path whose last segment is
// empty, "." or ".." names its directory's index.html. A clean path comes
// back as is, a run of leading slashes sliced off rather than copied.
func objectPath(p string) string {
	for len(p) > 1 && p[1] == '/' {
		p = p[1:]
	}
	object := gaa.CleanObject(p)
	if last := p[strings.LastIndexByte(p, '/')+1:]; last != "" && last != "." && last != ".." {
		return object
	}
	return strings.TrimSuffix(object, "/") + "/index.html"
}

// FileRoot serves static documents by object (RequestRec.Path); the
// server falls back to a MapRoot of its DocRoot when none is configured.
type FileRoot interface {
	// Open returns the content of the document the object names, or
	// ok=false when no document exists there; a directory is none.
	Open(object string) (content string, ok bool, err error)
}

// MapRoot adapts the in-memory object→content map.
type MapRoot map[string]string

// Open implements FileRoot.
func (m MapRoot) Open(object string) (string, bool, error) {
	content, ok := m[object]
	return content, ok, nil
}

// OSRoot serves documents from a directory on disk, confined to that
// directory (the object is cleaned again before joining, so ".."
// traversal cannot escape whatever a caller passes).
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
func (r *OSRoot) Open(object string) (string, bool, error) {
	// A NUL byte ends a name on every system: no file has this one.
	if strings.IndexByte(object, 0) >= 0 {
		return "", false, nil
	}
	content, err := readDocument(r.dir, gaa.CleanObject(object))
	// ENOTDIR: a component of the path is (or just became) a document.
	// ENAMETOOLONG: no file can have the name.
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, syscall.ENOTDIR) || errors.Is(err, syscall.ENAMETOOLONG) {
		return "", false, nil
	}
	return content, err == nil, err
}
