package gaaapi

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestGofmt holds every .go file of the module to gofmt's layout:
// go/format is the formatter gofmt runs, so this is `gofmt -l .` coming
// back empty, with no tool beside the test. A directory with its own
// go.mod (benchmark/) is another module and is skipped.
func TestGofmt(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		formatted, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(src, formatted) {
			t.Errorf("%s is not gofmt-formatted (run gofmt -w %s)", path, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
