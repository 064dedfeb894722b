package experiments

import (
	"context"
	"fmt"
	"io"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
)

// E6 checks the paper's section 2.1 composition semantics as a full
// decision matrix — for every (system policy, local policy) pair in
// {grant, deny, inapplicable} and every composition mode in {expand,
// narrow, stop}.
func E6(w io.Writer, opts Options) error {
	api := gaa.New()
	req := gaa.NewRequest("apache", "GET /x")

	mk := func(kind string, mode string) *eacl.EACL {
		var src string
		switch kind {
		case "grant":
			src = "pos_access_right apache *\n"
		case "deny":
			src = "neg_access_right apache *\n"
		case "n/a":
			src = "pos_access_right sshd login\n" // never matches the request
		}
		if mode != "" {
			src = "eacl_mode " + mode + "\n" + src
		}
		e, err := eacl.ParseString(src)
		if err != nil {
			panic(err)
		}
		return e
	}

	// Expected decisions per DESIGN.md: stop ignores local when a
	// system policy exists; narrow conjoins (deny wins, system
	// inapplicability defers to local); expand disjoins (grant wins).
	expected := map[string]map[[2]string]string{
		"expand": {
			{"grant", "grant"}: "yes", {"grant", "deny"}: "yes", {"grant", "n/a"}: "yes",
			{"deny", "grant"}: "yes", {"deny", "deny"}: "no", {"deny", "n/a"}: "no",
			{"n/a", "grant"}: "yes", {"n/a", "deny"}: "no", {"n/a", "n/a"}: "maybe",
		},
		"narrow": {
			{"grant", "grant"}: "yes", {"grant", "deny"}: "no", {"grant", "n/a"}: "yes",
			{"deny", "grant"}: "no", {"deny", "deny"}: "no", {"deny", "n/a"}: "no",
			{"n/a", "grant"}: "yes", {"n/a", "deny"}: "no", {"n/a", "n/a"}: "maybe",
		},
		"stop": {
			{"grant", "grant"}: "yes", {"grant", "deny"}: "yes", {"grant", "n/a"}: "yes",
			{"deny", "grant"}: "no", {"deny", "deny"}: "no", {"deny", "n/a"}: "no",
			{"n/a", "grant"}: "maybe", {"n/a", "deny"}: "maybe", {"n/a", "n/a"}: "maybe",
		},
	}

	tbl := Table{
		Title:  "E6: composition mode semantics (paper section 2.1)",
		Header: []string{"mode", "system", "local", "decision", "expected"},
		Notes: []string{
			"n/a = no applicable entry; maybe = uncertain -> HTTP_DECLINED (native access control decides)",
		},
	}
	mismatches := 0
	kinds := []string{"grant", "deny", "n/a"}
	for _, mode := range []string{"expand", "narrow", "stop"} {
		for _, sys := range kinds {
			for _, loc := range kinds {
				p := gaa.NewPolicy("/x",
					[]*eacl.EACL{mk(sys, mode)},
					[]*eacl.EACL{mk(loc, "")})
				ans, err := api.CheckAuthorization(context.Background(), p, req)
				if err != nil {
					return err
				}
				want := expected[mode][[2]string{sys, loc}]
				status := want
				if ans.Decision.String() != want {
					status = fmt.Sprintf("%s (MISMATCH)", want)
					mismatches++
				}
				tbl.AddRow(mode, sys, loc, ans.Decision.String(), status)
			}
		}
	}
	tbl.Fprint(w)

	if mismatches > 0 {
		return fmt.Errorf("E6: %d composition mismatches", mismatches)
	}
	return nil
}
