package reason_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"gaaapi/internal/eacl"
	"gaaapi/internal/eacl/reason"
	"gaaapi/internal/scenario"
)

// TestSharedQueriesMatchFresh: every entry of the paper's policies, the
// admin plane's, the eaclint fixtures and every campaign's policies
// gets from its file's engine, on which all its questions walk, the
// answer a fresh engine of its own gives (FreshUnsatisfiable). So does
// an unsatisfiable entry beside one whose file hash leaves the file's
// own walk short: a question's walk has shortfalls of its own.
func TestSharedQueriesMatchFresh(t *testing.T) {
	short, err := eacl.ParseString("neg_access_right apache *\n" +
		"pre_cond_file_sha256 local /nonexistent/blob 0000000000000000000000000000000000000000000000000000000000000000\n" +
		"neg_access_right apache *\npre_cond_location local 10.0.0.0/8\npre_cond_location local 192.168.0.0/16\n")
	if err != nil {
		t.Fatal(err)
	}
	files := []*eacl.EACL{short}
	var paths []string
	for _, g := range []string{"../../../policies/paper/*.eacl", "../../gaahttp/admin.eacl", "../../../testdata/eaclint/*.eacl"} {
		m, err := filepath.Glob(g)
		if err != nil || len(m) == 0 {
			t.Fatalf("%s: %v, %d files", g, err, len(m))
		}
		paths = append(paths, m...)
	}
	for _, p := range paths {
		e, err := eacl.ParseFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, e)
	}
	for _, c := range scenario.All() {
		srcs := map[string]string{"system": c.Stack.SystemPolicy}
		for obj, src := range c.Stack.LocalPolicies {
			srcs["local "+obj] = src
		}
		for name, src := range srcs {
			if src == "" {
				continue
			}
			e, err := eacl.ParseString(src)
			if err != nil {
				t.Fatalf("campaign %s, %s policy: %v", c.Name, name, err)
			}
			e.Source = fmt.Sprintf("campaign %s, %s policy", c.Name, name)
			files = append(files, e)
		}
	}
	entries := 0
	for _, f := range files {
		eng, err := reason.New(nil, []*eacl.EACL{f}, reason.Options{})
		if err != nil {
			t.Fatalf("%s: %v", f.Source, err)
		}
		for _, en := range f.Entries {
			core, unknown := eng.Unsatisfiable(en)
			wantCore, wantUnknown := reason.FreshUnsatisfiable(en)
			if !slices.Equal(core, wantCore) || unknown != wantUnknown {
				t.Errorf("%s:%d: the file's engine answers %v, %q; a fresh one %v, %q",
					f.Source, en.Line, core, unknown, wantCore, wantUnknown)
			}
			entries++
		}
	}
	t.Logf("%d entries of %d files", entries, len(files))
}
