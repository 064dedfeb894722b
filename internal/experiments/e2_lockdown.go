package experiments

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	"gaaapi/internal/gaahttp"
	"gaaapi/internal/ids"
	"gaaapi/internal/workload"
	"gaaapi/policies/paper"
)

// E2 reproduces the paper's section 7.1 network-lockdown deployment as
// a behaviour matrix: for each system threat level and client class
// (anonymous, bad credentials, authenticated) it records the HTTP
// outcome. The expected shape: at low threat the native mixed access
// applies (public objects open); above low every access requires
// authentication; at high threat the mandatory system-wide policy
// denies everyone.
func E2(w io.Writer, opts Options) error {
	opts = opts.Defaults()
	st, err := gaahttp.NewStack(gaahttp.StackConfig{
		SystemPolicy:  paper.System71,
		LocalPolicies: map[string]string{"*": paper.Local71},
		DocRoot:       workload.DocRoot(),
		Htaccess: map[string]string{
			// Native mixed access: /docs needs auth even in peacetime.
			"docs": "Require valid-user\n",
		},
		Users: map[string]string{"alice": "wonderland"},
	})
	if err != nil {
		return err
	}
	defer st.Close()

	do := func(target, user, pass string) int {
		req := httptest.NewRequest("GET", target, nil)
		req.RemoteAddr = "10.0.1.50:40000"
		if user != "" {
			req.SetBasicAuth(user, pass)
		}
		rec := httptest.NewRecorder()
		st.Server.ServeHTTP(rec, req)
		return rec.Code
	}

	tbl := Table{
		Title:  "E2: network lockdown behaviour (paper section 7.1)",
		Header: []string{"threat level", "client", "GET /index.html", "GET /docs/guide.html", "expected"},
		Notes: []string{
			"/docs requires auth natively (.htaccess); /index.html is public",
			"low: GAA declines -> native access control; medium: lockdown (401 until authenticated); high: mandatory deny (403)",
		},
	}

	clients := []struct {
		name       string
		user, pass string
	}{
		{"anonymous", "", ""},
		{"bad password", "alice", "wrong"},
		{"authenticated", "alice", "wonderland"},
	}
	expected := map[string]map[string][2]int{
		"low": {
			"anonymous":     {http.StatusOK, http.StatusUnauthorized},
			"bad password":  {http.StatusOK, http.StatusUnauthorized},
			"authenticated": {http.StatusOK, http.StatusOK},
		},
		"medium": {
			"anonymous":     {http.StatusUnauthorized, http.StatusUnauthorized},
			"bad password":  {http.StatusUnauthorized, http.StatusUnauthorized},
			"authenticated": {http.StatusOK, http.StatusOK},
		},
		"high": {
			"anonymous":     {http.StatusForbidden, http.StatusForbidden},
			"bad password":  {http.StatusForbidden, http.StatusForbidden},
			"authenticated": {http.StatusForbidden, http.StatusForbidden},
		},
	}

	mismatches := 0
	for _, level := range []ids.Level{ids.Low, ids.Medium, ids.High} {
		st.Threat.Set(level)
		for _, c := range clients {
			home := do("/index.html", c.user, c.pass)
			docs := do("/docs/guide.html", c.user, c.pass)
			want := expected[level.String()][c.name]
			status := "ok"
			if home != want[0] || docs != want[1] {
				status = fmt.Sprintf("MISMATCH (want %d/%d)", want[0], want[1])
				mismatches++
			}
			tbl.AddRow(level.String(), c.name,
				fmt.Sprintf("%d", home), fmt.Sprintf("%d", docs), status)
		}
	}
	tbl.Fprint(w)
	if mismatches > 0 {
		return fmt.Errorf("E2: %d behaviour mismatches", mismatches)
	}
	return nil
}
