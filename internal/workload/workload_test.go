package workload

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestLegitDeterministic(t *testing.T) {
	a := Legit(50, 7)
	b := Legit(50, 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed must give identical traffic")
	}
	c := Legit(50, 8)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should differ")
	}
	for _, r := range a {
		if r.Attack != "" {
			t.Errorf("legit request labelled %q", r.Attack)
		}
		if !strings.HasPrefix(r.ClientIP, "10.0.") {
			t.Errorf("unexpected client %q", r.ClientIP)
		}
	}
}

func TestLegitPathsServable(t *testing.T) {
	root := DocRoot()
	for _, r := range Legit(100, 1) {
		path := r.Target
		if i := strings.IndexByte(path, '?'); i >= 0 {
			path = path[:i]
		}
		if strings.HasPrefix(path, "/cgi-bin/") {
			continue
		}
		if _, ok := root[path]; !ok {
			t.Errorf("legit path %q not in DocRoot", path)
		}
	}
}

func TestAttackShapes(t *testing.T) {
	tests := []struct {
		req      Request
		contains string
		attack   string
	}{
		{PhfScan("1.1.1.1"), "phf", "phf"},
		{TestCGIScan("1.1.1.1"), "test-cgi", "test-cgi"},
		{SlashFlood("1.1.1.1"), "////////", "slash-flood"},
		{Nimda("1.1.1.1"), "%c0%af", "nimda"},
		{Overflow("1.1.1.1", 1200), strings.Repeat("A", 1200), "overflow"},
		{Overflow("1.1.1.1", 0), "A", "overflow"},
	}
	for _, tt := range tests {
		if !strings.Contains(tt.req.Target, tt.contains) {
			t.Errorf("%s target = %q, want substring %q", tt.attack, tt.req.Target, tt.contains)
		}
		if tt.req.Attack != tt.attack {
			t.Errorf("attack label = %q, want %q", tt.req.Attack, tt.attack)
		}
		if tt.req.ClientIP != "1.1.1.1" {
			t.Errorf("client = %q", tt.req.ClientIP)
		}
	}
}

func TestAttackMixDistinctSources(t *testing.T) {
	mix := AttackMix()
	if len(mix) != 5 {
		t.Fatalf("mix size = %d, want 5", len(mix))
	}
	ips := map[string]bool{}
	for _, r := range mix {
		if ips[r.ClientIP] {
			t.Errorf("duplicate attacker IP %s", r.ClientIP)
		}
		ips[r.ClientIP] = true
	}
}

func TestHTTPRequest(t *testing.T) {
	r := Request{Method: "GET", Target: "/x?y=1", ClientIP: "9.9.9.9", User: "u", Pass: "p"}
	req := r.HTTPRequest()
	if req.URL.Path != "/x" || req.URL.RawQuery != "y=1" {
		t.Errorf("url = %v", req.URL)
	}
	if req.RemoteAddr != "9.9.9.9:40000" {
		t.Errorf("remote = %q", req.RemoteAddr)
	}
	if u, p, ok := req.BasicAuth(); !ok || u != "u" || p != "p" {
		t.Errorf("basic auth = %q %q %v", u, p, ok)
	}
}

func TestInterleavePreservesStreams(t *testing.T) {
	a := []Request{{Target: "/a1"}, {Target: "/a2"}, {Target: "/a3"}}
	b := []Request{{Target: "/b1"}, {Target: "/b2"}}
	out := Interleave(3, a, b)
	if len(out) != 5 {
		t.Fatalf("len = %d", len(out))
	}
	var as, bs []string
	for _, r := range out {
		if strings.HasPrefix(r.Target, "/a") {
			as = append(as, r.Target)
		} else {
			bs = append(bs, r.Target)
		}
	}
	if !reflect.DeepEqual(as, []string{"/a1", "/a2", "/a3"}) {
		t.Errorf("stream a order = %v", as)
	}
	if !reflect.DeepEqual(bs, []string{"/b1", "/b2"}) {
		t.Errorf("stream b order = %v", bs)
	}
	// Determinism.
	if !reflect.DeepEqual(Interleave(3, a, b), out) {
		t.Error("same seed must interleave identically")
	}
}

// Property: interleaving never loses or duplicates requests.
func TestInterleaveConserves(t *testing.T) {
	prop := func(na, nb uint8, seed int64) bool {
		a := Legit(int(na%32), 1)
		b := Legit(int(nb%32), 2)
		out := Interleave(seed, a, b)
		return len(out) == len(a)+len(b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("conservation property: %v", err)
	}
}

func TestLegitFrom(t *testing.T) {
	reqs := LegitFrom("10.9.9.9", 25, 3)
	if len(reqs) != 25 {
		t.Fatalf("len = %d", len(reqs))
	}
	for _, r := range reqs {
		if r.ClientIP != "10.9.9.9" {
			t.Fatalf("client = %q, want fixed IP", r.ClientIP)
		}
		if r.Attack != "" {
			t.Fatalf("legit request labelled %q", r.Attack)
		}
	}
	if reflect.DeepEqual(LegitFrom("10.9.9.9", 25, 3), LegitFrom("10.9.9.9", 25, 4)) {
		t.Error("different seeds should differ")
	}
}
