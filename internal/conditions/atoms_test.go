package conditions

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
	"gaaapi/policies/paper"
)

// TestAtomsHoldToEvaluator holds every atom declaration to its own
// condition's Evaluate: each value of the shipped paper policies and of
// an edge table is read by AtomsOf, and a request built from each cell
// the atoms declare evaluates YES inside the cell and NO outside it.
// The expected side comes from the atoms alone (a glob, a CIDR, the
// window's bounds and days, the comparator and bound), never from the
// evaluator.
func TestAtomsHoldToEvaluator(t *testing.T) {
	pinned := filepath.Join(t.TempDir(), "passwd")
	if err := os.WriteFile(pinned, []byte("root:x:0:0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	digest, err := HashFile(pinned)
	if err != nil {
		t.Fatal(err)
	}
	type value struct{ typ, value string }
	var values []value
	seeded := gaa.NewValues()
	seeded.Set("max_input", "1000") // the paper's bound
	for _, src := range []string{paper.System71, paper.Local71, paper.System72, paper.Local72} {
		e, err := eacl.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, en := range e.Entries {
			for _, c := range en.Conditions {
				v, ok := gaa.ResolveValue(c.Value, seeded)
				if !ok {
					t.Fatalf("%s %q does not resolve", c.Type, c.Value)
				}
				values = append(values, value{c.Type, v})
			}
		}
	}
	values = append(values, []value{
		{"accessid_USER", "alice b*b"},
		{"accessid_USER", "*"},
		{"accessid_HOST", "10.1.* gw.example.org"},
		{"accessid_GROUP", "Admins"},
		{"location", "0.0.0.0/0"},
		{"location", "192.0.2.7/32"},
		{"location", "10.0.0.0/8 192.168.*"},
		{"regex", `re:^GET\s/admin`},
		{"regex", "*phf* re:cmd"},
		{"time_window", "22:00-06:00"},
		{"time_window", "22:00-06:00 Sat,Sun"},
		{"time_window", "09:00-17:00 Mon-Fri"},
		{"time_window", "09:00-09:00"},
		{"expr", "n=5"},
		{"expr", "n==5"},
		{"expr", "n!=5"},
		{"expr", "n<5"},
		{"expr", "n<=5"},
		{"expr", "n>5"},
		{"expr", "n>=5"},
		{"quota", "cpu_ms<=50"},
		{"threshold", "counter=failed_login key=client_ip max=5 window=60s"},
		{"file_sha256", pinned + " " + digest},
	}...)

	holds := map[string]func(v, bound int64) bool{
		"=":  func(v, k int64) bool { return v == k },
		"!=": func(v, k int64) bool { return v != k },
		"<":  func(v, k int64) bool { return v < k },
		"<=": func(v, k int64) bool { return v <= k },
		">":  func(v, k int64) bool { return v > k },
		">=": func(v, k int64) bool { return v >= k },
	}
	monday := time.Date(2026, time.January, 5, 0, 0, 0, 0, time.UTC)
	covered := map[string]bool{}
	for _, v := range values {
		a, err := AtomsOf(v.typ, v.value)
		if err != nil {
			t.Errorf("%s %q: %v", v.typ, v.value, err)
			continue
		}
		covered[v.typ] = true
		if a.Axis == AxisNone && !a.Ambient {
			continue // no request axis: a threat level, a counter
		}
		store := groups.NewStore()
		ev, _ := Builtin(v.typ, Deps{Groups: store})
		cond := eacl.Condition{Block: eacl.BlockPre, Type: v.typ, DefAuth: "local", Value: v.value}
		check := func(cell string, want gaa.Decision, at time.Time, params ...gaa.Param) {
			t.Helper()
			req := gaa.NewRequest("apache", "GET /x", params...)
			req.Time = at
			if got := ev.Evaluate(context.Background(), cond, req).Result; got != want {
				t.Errorf("%s %q: %s evaluates %v, its atoms say %v", v.typ, v.value, cell, got, want)
			}
		}
		param := func(typ, val string) gaa.Param { return gaa.Param{Type: typ, Authority: gaa.AuthorityAny, Value: val} }
		switch a.Axis {
		case AxisUser:
			for _, g := range a.Globs {
				check("user "+witness(g), gaa.Yes, monday, param(gaa.ParamUser, witness(g)))
			}
			if out, ok := outside([]string{"~nobody", "zz9"}, a.Globs); ok {
				check("user "+out, gaa.No, monday, param(gaa.ParamUser, out))
			}
			check("the anonymous client", gaa.No, monday)
		case AxisGroup:
			store.Add(a.Group, "192.0.2.9")
			check("a member of "+a.Group, gaa.Yes, monday, param(gaa.ParamClientIP, "192.0.2.9"))
			check("a non-member", gaa.No, monday, param(gaa.ParamClientIP, "192.0.2.10"))
		case AxisAddress:
			addrs := []string{"203.0.113.77", "::1", "10.123.45.67", "192.0.2.7", "::ffff:c000:207", "2001:db8::7"}
			for _, g := range a.Globs {
				addrs = append(addrs, witness(g))
			}
			for _, ip := range addrs {
				want := gaa.No
				if slices.ContainsFunc(a.Globs, func(g string) bool { return eacl.Glob(g, ip) }) ||
					slices.ContainsFunc(a.Exprs, func(e string) bool { return regexp.MustCompile(e).MatchString(ip) }) {
					want = gaa.Yes
				}
				check("address "+ip, want, monday, param(gaa.ParamClientIP, ip))
			}
		case AxisLine:
			lines := []string{"GET /index.html", "GET /admin/users", "GET /cgi-bin/cmd.exe", "zz"}
			for _, g := range a.Globs {
				lines = append(lines, witness(g))
			}
			for _, line := range lines {
				inside := slices.ContainsFunc(a.Globs, func(g string) bool { return eacl.Glob(g, line) }) ||
					slices.ContainsFunc(a.Exprs, func(e string) bool { return regexp.MustCompile(e).MatchString(line) })
				want := gaa.No
				if inside {
					want = gaa.Yes
				}
				check(fmt.Sprintf("request line %q", line), want, monday, param(gaa.ParamRequestURI, line))
			}
			for _, e := range a.Exprs {
				if !strings.Contains(v.value, "re:"+e) {
					t.Errorf("%s %q: declares an re: expression %q it does not hold", v.typ, v.value, e)
				}
			}
		case AxisTime:
			w := a.Window
			on, off := -1, -1
			for d := 6; d >= 0; d-- {
				if w.Days[monday.AddDate(0, 0, d).Weekday()] {
					on = d
				} else {
					off = d
				}
			}
			at := func(day, minute int) time.Time {
				return monday.AddDate(0, 0, day).Add(time.Duration(minute) * time.Minute)
			}
			startSide := gaa.Yes
			if w.Empty() {
				startSide = gaa.No
			}
			if on >= 0 {
				check("the window's start", startSide, at(on, w.Start))
				check("the minute before the start", gaa.No, at(on, (w.Start+24*60-1)%(24*60)))
				check("the window's end", gaa.No, at(on, w.End))
			}
			if off >= 0 {
				check("the start on an inactive day", gaa.No, at(off, w.Start))
			}
		case AxisInt:
			holds := holds[a.Op]
			if holds == nil {
				t.Errorf("%s %q: unknown comparator %q", v.typ, v.value, a.Op)
				continue
			}
			for _, n := range []int64{a.Bound - 1, a.Bound, a.Bound + 1} {
				want := gaa.No
				if holds(n, a.Bound) {
					want = gaa.Yes
				}
				check(fmt.Sprintf("%s=%d", a.Param, n), want, monday, param(a.Param, strconv.FormatInt(n, 10)))
			}
			check("no "+a.Param, gaa.Maybe, monday)
		case AxisNone: // ambient: the same request answers as the file does
			check("the pinned file", gaa.Yes, monday)
			if err := os.WriteFile(pinned, []byte("root::0:0\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			check("the modified file", gaa.No, monday)
		}
	}
	for _, name := range Names() {
		ev, _ := Builtin(name, Deps{})
		if _, declares := ev.(atomizer); declares && !covered[name] {
			t.Errorf("%s declares atoms but no value exercises them", name)
		}
	}
}

// witness is a string the '*'-glob g matches.
func witness(g string) string { return strings.ReplaceAll(g, "*", "x") }

// outside returns the first of pool that no glob matches.
func outside(pool, globs []string) (string, bool) {
	for _, s := range pool {
		if !slices.ContainsFunc(globs, func(g string) bool { return eacl.Glob(g, s) }) {
			return s, true
		}
	}
	return "", false
}
