//go:build unix

package httpd

import (
	"io/fs"
	"syscall"
	"unsafe"
)

// readDocument reads the file at dir+object; a directory reads as
// not-exist. It holds the descriptor itself, in four system calls
// (open, fstat, read, close) and two allocations (syscall.Open's
// NUL-terminated copy of the name, and the content): on Linux an
// os.File would add four fcntls and a failed epoll registration to make
// the descriptor non-blocking and back, a finalizer, three allocations of
// its own and a copy of the content, for a file read once and closed.
func readDocument(dir, object string) (string, error) {
	var buf [512]byte // a longer name grows onto the heap
	name := append(append(buf[:0], dir...), object...)
	fail := func(op string, err error) (string, error) {
		return "", &fs.PathError{Op: op, Path: string(name), Err: err}
	}
	var fd int
	var err error
	for {
		// The name is only read: syscall.Open copies it to add the NUL.
		fd, err = syscall.Open(unsafe.String(unsafe.SliceData(name), len(name)), syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return fail("open", err)
	}
	defer syscall.Close(fd)
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		return fail("stat", err)
	}
	if st.Mode&syscall.S_IFMT == syscall.S_IFDIR {
		return "", fs.ErrNotExist
	}
	data := make([]byte, st.Size)
	n := 0
	for n < len(data) {
		// One read takes at most 1 GiB, as os.File's do: some systems
		// refuse a count above INT_MAX.
		m, err := syscall.Read(fd, data[n:min(len(data), n+1<<30)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return fail("read", err)
		}
		if m == 0 {
			break // truncated since the fstat: serve what is there
		}
		n += m
	}
	// data is this call's own and nothing writes it again.
	return unsafe.String(unsafe.SliceData(data), n), nil
}
