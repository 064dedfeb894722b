//go:build !unix

package httpd

import (
	"cmp"
	"io"
	"io/fs"
	"os"
)

// readDocument reads the file at dir+object; a directory reads as
// not-exist.
func readDocument(dir, object string) (string, error) {
	f, err := os.Open(dir + object)
	if err != nil {
		return "", err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || fi.IsDir() {
		return "", cmp.Or(err, fs.ErrNotExist)
	}
	data := make([]byte, fi.Size())
	n, err := io.ReadFull(f, data)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		err = nil // truncated since the stat: serve what is there
	}
	return string(data[:n]), err
}
