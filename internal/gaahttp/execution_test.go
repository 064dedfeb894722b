package gaahttp

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gaaapi/internal/execctl"
	"gaaapi/internal/httpd"
)

// monitoredServer serves scripts behind the guard NewStack builds for
// the browse policies, which put every CGI grant under a
// mid_cond_quota and a post-execution audit, with the quota checked
// every interval.
func monitoredServer(t *testing.T, scripts *httpd.ScriptRegistry, interval time.Duration, wrap func(httpd.Guard) httpd.Guard) *httpd.Server {
	t.Helper()
	st, err := NewStack(StackConfig{
		SystemPolicy:  browseSystem,
		LocalPolicies: map[string]string{"*": browseLocal},
		DocRoot:       map[string]string{"/index.html": "home"},
		PolicyCache:   true,
	})
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	t.Cleanup(st.Close)
	var guard httpd.Guard = st.Guard
	if wrap != nil {
		guard = wrap(guard)
	}
	return httpd.NewServer(httpd.Config{
		DocRoot:         map[string]string{"/index.html": "home"},
		Scripts:         scripts,
		Guards:          []httpd.Guard{guard},
		MonitorInterval: interval,
	})
}

// TestPanickingMonitoredScriptDoesNotKillServer: a script under a quota
// runs on the handler's goroutine, so its panic is net/http's to
// recover, like any handler's. The request fails, the server keeps
// serving, and the guard's Monitor is not called once the panic has
// unwound. While such a script ran on a goroutine of its own, the panic
// exited the process.
func TestPanickingMonitoredScriptDoesNotKillServer(t *testing.T) {
	const interval = 50 * time.Microsecond
	scripts := httpd.NewDemoRegistry()
	scripts.Register("boom", func(context.Context, *httpd.CGIContext) error {
		time.Sleep(2 * time.Millisecond) // monitored for a while first
		panic("script bug")
	})
	var calls atomic.Int32
	counting := func(g httpd.Guard) httpd.Guard {
		return httpd.GuardFunc(func(rec *httpd.RequestRec) httpd.Verdict {
			v := g.Check(rec)
			if m := v.Monitor; m != nil {
				v.Monitor = func(s execctl.Snapshot) bool {
					calls.Add(1)
					return m(s)
				}
			}
			return v
		})
	}
	srv := httptest.NewUnstartedServer(monitoredServer(t, scripts, interval, counting))
	srv.Config.ErrorLog = log.New(io.Discard, "", 0) // net/http logs the recovered panic
	srv.Start()
	defer srv.Close()
	client := srv.Client()

	if resp, err := client.Get(srv.URL + "/cgi-bin/boom"); err == nil {
		resp.Body.Close()
		t.Fatalf("panicking script answered %d, want a failed request", resp.StatusCode)
	}
	after := calls.Load()
	time.Sleep(100 * interval)
	if n := calls.Load() - after; n != 0 {
		t.Errorf("%d Monitor calls after the panic unwound", n)
	}
	resp, err := client.Get(srv.URL + "/cgi-bin/search?q=ok")
	if err != nil {
		t.Fatalf("request after the panic: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("request after the panic = %d, want 200", resp.StatusCode)
	}
}

// TestMonitoredGrantFence runs slow monitored CGI grants, ticked every
// 50µs, beside document grants from several clients. Post recycles the
// guard's check state as soon as the server calls it, and the next
// request on any client rewrites it; a Monitor tick landing after Run
// returned would read that state unsynchronized, which -race reports.
func TestMonitoredGrantFence(t *testing.T) {
	scripts := httpd.NewDemoRegistry()
	scripts.Register("slow", func(ctx context.Context, c *httpd.CGIContext) error {
		for i := 0; i < 4; i++ {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(100 * time.Microsecond):
			}
			c.Usage.AddCPU(time.Millisecond)
		}
		_, err := io.WriteString(c.Out, "done\n")
		return err
	})
	s := monitoredServer(t, scripts, 50*time.Microsecond, nil)
	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, target := range []string{"/cgi-bin/slow", "/index.html"} {
					rw := httptest.NewRecorder()
					s.ServeHTTP(rw, newRequest(target, "10.0.3."+itoa(w+1)))
					if rw.Code != http.StatusOK {
						t.Errorf("%s = %d, want 200", target, rw.Code)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMonitorTicksRaceFinalMidCheck: a script ticked every 20µs while
// within its quota crosses it in its last step and returns at once, so
// the final mid check runs right behind the last tick. Both run the
// compiled quota on the check state's phase request, which -race
// reports unless the fence orders them; every run must end aborted,
// with its post-execution audit.
func TestMonitorTicksRaceFinalMidCheck(t *testing.T) {
	scripts := httpd.NewDemoRegistry()
	scripts.Register("edge", func(ctx context.Context, c *httpd.CGIContext) error {
		for i := 0; i < 8; i++ {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(40 * time.Microsecond):
			}
			c.Usage.AddCPU(30 * time.Millisecond) // 240 ms after eight: within cpu_ms<=250
		}
		c.Usage.AddCPU(100 * time.Millisecond)
		return nil
	})
	st, err := NewStack(StackConfig{
		SystemPolicy:  browseSystem,
		LocalPolicies: map[string]string{"*": browseLocal},
		PolicyCache:   true,
	})
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	t.Cleanup(st.Close)
	s := httpd.NewServer(httpd.Config{
		Scripts:         scripts,
		Guards:          []httpd.Guard{st.Guard},
		MonitorInterval: 20 * time.Microsecond,
	})
	const workers, rounds = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rw := httptest.NewRecorder()
				s.ServeHTTP(rw, newRequest("/cgi-bin/edge", "10.0.4."+itoa(w+1)))
				if rw.Code != http.StatusInternalServerError {
					t.Errorf("quota-crossing script = %d, want 500 (aborted)", rw.Code)
				}
			}
		}(w)
	}
	wg.Wait()
	failed := 0
	for _, r := range st.Audit.Records() {
		if r.Kind == "post_execution" && r.Object == "/cgi-bin/edge" && r.Info == "cgi-failed" {
			failed++
		}
	}
	if failed != workers*rounds {
		t.Errorf("%d post-execution audits of a failed run, want %d", failed, workers*rounds)
	}
}
