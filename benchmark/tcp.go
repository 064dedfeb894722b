package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildHTTPD compiles cmd/gaa-httpd into binDir. It runs once per
// process, before any set-up is timed.
func buildHTTPD(benchDir, binDir string) (string, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(binDir, "gaa-httpd")
	cmd := exec.Command("go", "build", "-o", bin, "gaaapi/cmd/gaa-httpd")
	cmd.Dir = benchDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build gaa-httpd: %v\n%s", err, out)
	}
	return bin, nil
}

// httpdProc is the shipped gaa-httpd binary serving a generated
// -system/-local-dir/-docroot site over loopback TCP.
type httpdProc struct {
	cmd   *exec.Cmd
	addr  string
	tmp   string
	admin *http.Client
	done  chan struct{} // closed when the child has been reaped
	log   bytes.Buffer
}

func deployHTTPD(bin, scratch string) (*httpdProc, error) {
	tmp, err := os.MkdirTemp(scratch, "httpd-")
	if err != nil {
		return nil, err
	}
	d := &httpdProc{tmp: tmp, done: make(chan struct{})}
	system, site, err := writeSite(tmp)
	if err != nil {
		d.close()
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		d.close()
		return nil, err
	}
	d.addr = "127.0.0.1:" + strconv.Itoa(port)
	d.cmd = exec.Command(bin,
		"-listen", d.addr,
		"-system", system, "-local-dir", site, "-docroot", site,
		"-access-log", filepath.Join(tmp, "access.log"),
		"-state-dir", filepath.Join(tmp, "state"),
		"-metrics", "-pprof")
	d.cmd.Stdout, d.cmd.Stderr = &d.log, &d.log
	if err := d.cmd.Start(); err != nil {
		d.cmd = nil
		d.close()
		return nil, fmt.Errorf("start gaa-httpd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // exit status is irrelevant: close() kills it
		close(d.done)
	}()
	d.admin = &http.Client{Transport: newTransport(nil), Timeout: 30 * time.Second}
	if err := d.waitReady(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (d *httpdProc) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("gaa-httpd exited during start-up:\n%s", d.log.String())
		default:
		}
		resp, err := d.admin.Get("http://" + d.addr + "/gaa/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("gaa-httpd not ready on %s after 10s:\n%s", d.addr, d.log.String())
}

// newTransport is the client side of the load: one keep-alive
// connection per transport, no compression, bounded header wait (the
// gsnova idiom in SNIPPETS.md). local binds the source address.
func newTransport(local net.IP) *http.Transport {
	dialer := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	if local != nil {
		dialer.LocalAddr = &net.TCPAddr{IP: local}
	}
	return &http.Transport{
		DialContext:           dialer.DialContext,
		MaxIdleConns:          4,
		MaxIdleConnsPerHost:   4,
		MaxConnsPerHost:       1,
		DisableCompression:    true,
		ResponseHeaderTimeout: 10 * time.Second,
		IdleConnTimeout:       time.Minute,
	}
}

// client gives worker its own connection from 127.0.1.<worker+1>, so
// gaa-httpd sees as many sources as there are connections.
func (d *httpdProc) client(worker int) client { return newTCPClient(d.addr, worker) }

func newTCPClient(addr string, worker int) *tcpClient {
	tr := newTransport(net.IPv4(127, 0, 1, byte(worker+1)))
	return &tcpClient{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 15 * time.Second}}
}

type tcpClient struct {
	base string
	hc   *http.Client
}

func (c *tcpClient) do(it *item) (int, int, error) {
	req, err := http.NewRequestWithContext(context.Background(), "GET", c.base+it.tgt.uri, nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, int(n), err
}

func (c *tcpClient) close() { c.hc.CloseIdleConnections() }

// cpuSeconds reads the child's CPU time from /proc/<pid>/stat: the load
// generator's own cost stays out.
func (d *httpdProc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks (100 Hz on Linux).
	rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", raw)
	}
	return (utime + stime) / 100, nil
}

// mallocs reads the child's cumulative malloc count from the header of
// its pprof allocs profile.
func (d *httpdProc) mallocs() (uint64, error) {
	return d.memStat("/debug/pprof/allocs?debug=1", "# Mallocs = ")
}

// The floor runs in the harness's process, not the child's.
func (d *httpdProc) aside(fn func()) { fn() }

func (d *httpdProc) heapLive() (uint64, error) {
	if _, err := d.memStat("/debug/pprof/heap?gc=1&debug=1", "# HeapAlloc = "); err != nil {
		return 0, err
	}
	return d.memStat("/debug/pprof/heap?gc=1&debug=1", "# HeapAlloc = ")
}

// memStat fetches a debug=1 pprof page and returns the runtime.MemStats
// field printed on the line starting with prefix.
func (d *httpdProc) memStat(path, prefix string) (uint64, error) {
	resp, err := d.admin.Get("http://" + d.addr + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no %q line", path, prefix)
}

// close stops the child, waits until it has been reaped, and removes
// its directories.
func (d *httpdProc) close() {
	if d.cmd != nil {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(5 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	}
	if d.admin != nil {
		d.admin.CloseIdleConnections()
	}
	os.RemoveAll(d.tmp)
}
