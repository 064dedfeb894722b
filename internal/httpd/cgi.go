package httpd

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"gaaapi/internal/execctl"
)

// CGIContext is what a simulated CGI script sees: the request record,
// an output writer whose bytes are credited to the usage accounting,
// and the usage handle for crediting simulated CPU and memory.
type CGIContext struct {
	Rec   *RequestRec
	Usage *execctl.Usage
	Out   io.Writer
}

// Script is a simulated CGI program. It must honour ctx cancellation:
// the execution-control phase kills runaway scripts by cancelling it.
// The server recycles c and, for a monitored script, ctx (execctl.Run's
// pooled monitor) when the script returns; a script must keep neither.
type Script func(ctx context.Context, c *CGIContext) error

// ScriptRegistry maps script names (the path component after
// /cgi-bin/) to implementations. Safe for concurrent use.
type ScriptRegistry struct {
	mu      sync.RWMutex
	scripts map[string]Script
}

// NewScriptRegistry returns an empty registry.
func NewScriptRegistry() *ScriptRegistry {
	return &ScriptRegistry{scripts: make(map[string]Script)}
}

// Register installs a script under name.
func (r *ScriptRegistry) Register(name string, s Script) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scripts[name] = s
}

// Get looks a script up.
func (r *ScriptRegistry) Get(name string) (Script, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.scripts[name]
	return s, ok
}

// Names returns the registered script names, sorted.
func (r *ScriptRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.scripts))
	for n := range r.scripts {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NewDemoRegistry returns the scripts used by the paper's scenarios
// and the experiments:
//
//	phf      — the classic vulnerable phonebook CGI; with the exploit
//	           query it leaks a fake /etc/passwd (what the section 7.2
//	           policy must block before execution)
//	test-cgi — the information-disclosure probe target
//	search   — a legitimate script: CPU cost proportional to the query
//	spin     — a runaway script consuming CPU until aborted
//	          (mid-condition experiment E7)
//	bigout   — writes output until aborted (output quota)
func NewDemoRegistry() *ScriptRegistry {
	r := NewScriptRegistry()
	r.Register("phf", func(_ context.Context, c *CGIContext) error {
		c.Usage.AddCPU(time.Millisecond)
		if strings.Contains(c.Rec.Query, "/etc/passwd") {
			// The famous newline-injection exploit: an unprotected
			// server would leak the password file here.
			_, err := io.WriteString(c.Out, "root:x:0:0:root:/root:/bin/sh\nnobody:x:99:99::/:\n")
			return err
		}
		_, err := fmt.Fprintf(c.Out, "phf: no entries matched %q\n", c.Rec.Query)
		return err
	})
	r.Register("test-cgi", func(_ context.Context, c *CGIContext) error {
		c.Usage.AddCPU(time.Millisecond)
		_, err := fmt.Fprintf(c.Out, "CGI/1.0 test script\nQUERY_STRING = %s\nSERVER_SOFTWARE = gaaapi-httpd\n", c.Rec.Query)
		return err
	})
	r.Register("search", func(_ context.Context, c *CGIContext) error {
		// Legitimate work: cost scales with the query.
		cost := time.Duration(1+len(c.Rec.Query)/64) * time.Millisecond
		c.Usage.AddCPU(cost)
		c.Usage.AddMem(int64(1024 + 16*len(c.Rec.Query)))
		_, err := fmt.Fprintf(c.Out, "results for %q: 3 documents\n", c.Rec.Query)
		return err
	})
	r.Register("spin", func(ctx context.Context, c *CGIContext) error {
		// Runaway CPU consumer; only cancellation stops it.
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(100 * time.Microsecond):
				c.Usage.AddCPU(10 * time.Millisecond)
			}
		}
	})
	r.Register("bigout", func(ctx context.Context, c *CGIContext) error {
		chunk := strings.Repeat("x", 1024)
		for i := 0; i < 1024; i++ {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
			if _, err := io.WriteString(c.Out, chunk); err != nil {
				return err
			}
			// Yield so the monitor can observe the growing output.
			if i%8 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
		return nil
	})
	return r
}
