package httpd

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"gaaapi/internal/costpin"
)

// TestCost is the package's cost ledger (internal/costpin): what a
// guard-less Server, its access log and its file root allocate, each
// count in testdata/cost.golden. The tests after it pin parts of it by
// name.
func TestCost(t *testing.T) {
	costpin.Check(t, slices.Concat(floorRows(t), logRows(), openRows(t)))
}

func TestServeFloorDocumentAllocs(t *testing.T) { costpin.CheckRows(t, floorRows(t)) }
func TestLogCLFZeroAlloc(t *testing.T)          { costpin.CheckRows(t, logRows()) }
func TestOSRootOpenAllocs(t *testing.T)         { costpin.CheckRows(t, openRows(t)) }

// floorRows is a document through a guard-less Server, the "Apache
// without GAA" floor the benchmark divides by.
func floorRows(t *testing.T) []costpin.Row {
	s := NewServer(Config{DocRoot: map[string]string{"/index.html": "<html>welcome</html>"}})
	req := httptest.NewRequest("GET", "/index.html", nil)
	req.RemoteAddr = "10.0.0.1:34567"
	rw := &discardResponse{header: make(http.Header)}
	return []costpin.Row{{Name: "floor document", What: "nothing: the request line (RequestRec.URI) is written into the pooled record's buffer, MapRoot serves a clean path uncopied and the operation closure stays on the stack", Run: func() {
		rw.code = 0
		s.ServeHTTP(rw, req)
		if rw.code != http.StatusOK {
			t.Fatalf("document answered %d, want 200", rw.code)
		}
	}, NoRace: true}}
}

// logRows are an access-log line into a discarding writer, and
// FormatCLF.
func logRows() []costpin.Row {
	s := NewServer(Config{AccessLog: io.Discard})
	rec := &RequestRec{
		Time:     time.Date(2003, 5, 19, 12, 0, 0, 0, time.FixedZone("", -7*3600)),
		URI:      "GET /docs/guide.html?q=1",
		ClientIP: "10.0.0.1",
		User:     "alice",
	}
	return []costpin.Row{
		{Name: "access-log line", What: "nothing: the line is built in a pooled buffer", Run: func() { s.logCLF(rec, 200, 5) }, NoRace: true},
		{Name: "FormatCLF", What: "the line it returns", Run: func() { _ = FormatCLF(rec, 200, 5) }, NoRace: true},
	}
}

// openRows is a document read through an OSRoot.
func openRows(t *testing.T) []costpin.Row {
	dir := t.TempDir()
	mkdirAll(t, filepath.Join(dir, "docs"))
	if err := os.WriteFile(filepath.Join(dir, "docs/guide.html"), []byte("<html>guide</html>"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewOSRoot(dir)
	return []costpin.Row{{Name: "OSRoot.Open", What: "syscall.Open's NUL-terminated copy of the name, and the document's bytes, returned uncopied: the descriptor is read without an os.File", Run: func() { r.Open("/docs/guide.html") }, NoRace: true}}
}
