package gaaapi

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// A ratchet keeps a deleted mechanism deleted: no line of its files may
// match forbidden. Each row carries one bad line its pattern must match,
// so a mistyped pattern fails instead of passing forever.
type ratchet struct {
	name string
	why  string
	// files are globs from the repository root; "dir/**/pat" matches pat
	// at any depth under dir. Each glob must match a file.
	files []string
	// region, when set, limits the search to the lines from one matching
	// region[0] through the next matching region[1], as an awk range.
	region [2]string
	// nonTest leaves the _test.go files out.
	nonTest   bool
	forbidden string
	bad       string
}

const ratchetFile = "ratchet_test.go"

var ratchets = []ratchet{
	{
		name:      "no wall-clock waits in replication tests",
		why:       "a replication test waits on a step or an event, never on the wall clock (target.go's live-target pause is correct and is not matched)",
		files:     []string{"internal/cluster/*.go", "internal/scenario/driver.go", "internal/scenario/cluster.go", "internal/scenario/*_test.go"},
		forbidden: `time\.Sleep|eventually\(|waitCluster|Throttle|ConvergeSLO|awaitConvergence`,
		bad:       "\ttime.Sleep(10 * time.Millisecond)",
	},
	{
		name:      "no condition memo caches",
		why:       "every value language is parsed by one function and nothing memoizes it",
		files:     []string{"**/*.go"},
		forbidden: `splitFields|compileCached|MemoCacheStats|shardedCache`,
		bad:       "\tfields := splitFields(value)",
	},
	{
		name:      "no per-request formatting in the file-backed sources",
		why:       "the live per-directory walk stats and does not format, and a loaded tree answers from memory; neither builds a stamp per request",
		files:     []string{"internal/gaa/source.go", "internal/gaa/dirchain.go", "internal/gaa/dirsource.go", "internal/httpd/baseline.go"},
		forbidden: `fmt\.Sprintf|ModTime\(\)\.String\(\)`,
		bad:       "\trev := fi.ModTime().String()",
	},
	{
		name:      "no threat-level subscription machinery",
		why:       "a level change is announced by Manager.OnChange, in order; the subscription channel and the tuner's goroutine are gone",
		files:     []string{"internal/ids/**/*"},
		forbidden: `func \(m \*Manager\) Subscribe|levelSub|func \(t \*ValueTuner\) Run`,
		bad:       "func (m *Manager) Subscribe() <-chan Level {",
	},
	{
		name:      "no IDS queues",
		why:       "the scorer and the host-IDS correlator observe on the request; a queue in front of either drops attack evidence under load",
		files:     []string{"internal/ids/**/*"},
		forbidden: `Synchronous|chan Sample|chan Report|func \(b \*Bus\) Subscribe|func \(c \*Correlator\) Run`,
		bad:       "\tqueue chan Report",
	},
	{
		name:      "no per-request path copies",
		why:       "MapRoot cleans with gaa.CleanObject, which copies no clean path",
		files:     []string{"internal/httpd/*.go"},
		forbidden: `path.Clean\("/"`,
		bad:       `	name = path.Clean("/" + name)`,
	},
	{
		name:      "no per-request context copies",
		why:       "a monitored operation's context is its pooled monitor",
		files:     []string{"internal/execctl/execctl.go"},
		forbidden: `context.WithCancel`,
		bad:       "\tctx, cancel := context.WithCancel(parent)",
	},
	{
		name:      "no struct-keyed evaluator registry",
		why:       "evaluators are found by type, then authority: one string hash, not two hashes of a (type, authority) struct per condition",
		files:     []string{"internal/gaa/registry.go"},
		forbidden: `regKey`,
		bad:       "\tevaluators map[regKey]Evaluator",
	},
	{
		name:      "no reflection on the response journal",
		why:       "block and group records render into the store's frame buffer; their journal taps box nothing and marshal nothing",
		files:     []string{"internal/statestore/persist.go"},
		region:    [2]string{`name: Kind(Block|Group),`, `record:`},
		forbidden: `json\.Marshal|a\.append\(`,
		bad:       "\t\t\t\tb, err := json.Marshal(ev)",
	},
	{
		name:      "one first-match scan outside the compiled engine",
		why:       "the reasoner models each world through gaa's specification (spec.go): SpecEntry per entry, SpecCheck for the scan, the folds and the request-result conjunction",
		files:     []string{"internal/eacl/**/*.go"},
		forbidden: `func modelEntry|func decide\(|conjoinRR`,
		bad:       "func modelEntry(ctx context.Context, env *worldEnv, en *eacl.Entry, w *world) entryModel {",
	},
	{
		name:      "the specification stays off the request path",
		why:       "gaa's spec.go is plain on purpose and answers for the compiled engine; nothing that serves a request calls it",
		files:     []string{"internal/gaahttp/*.go", "internal/httpd/*.go", "internal/execctl/*.go", "internal/gaa/api.go", "internal/gaa/compiled.go", "cmd/gaa-httpd/*.go"},
		forbidden: `\bSpec(Entry|Check)\b|\bEntry(Model|Kind|Inapplicable|FiresYes|FiresNo|Maybe|RequirementNo)\b|\bspec(Scan|Block)\b`,
		bad:       "\tans, _ := g.api.SpecCheck(ctx, p, req, nil)",
	},
	{
		name:      "the compiled engine writes no trace of its own",
		why:       "a traced request decides as an untraced one; the specification (SpecCheck, spec.go) writes every trace, and the compiled engine records faults alone",
		files:     []string{"internal/gaa/compiled.go", "internal/gaa/api.go"},
		forbidden: `\b(req|r)\.Trace\b|\.note\(`,
		bad:       "\t\t\t\t\t\tif req.Trace {",
	},
	{
		name:      "the reasoner and eaclint name no built-in routine",
		why:       "each built-in condition declares what it reads beside its parse (conditions.AtomsOf), and each vocabulary is one table (conditions.Names, actions.Names); the reasoner merges atoms by axis and the lint vocabulary is reason.RegisterVocabulary, so neither restates a routine by name",
		files:     []string{"internal/eacl/reason/*.go", "cmd/eaclint/*.go"},
		nonTest:   true,
		forbidden: `"(accessid_USER|accessid_GROUP|accessid_HOST|system_threat_level|time_window|location|regex|signature|expr|threshold|redirect|quota|file_sha256|notify|update_log|audit|set_threat_level|block_ip|count)"`,
		bad:       `	for _, name := range []string{"notify", "update_log", "audit"} {`,
	},
	{
		name:      "the reasoner builds no engine of its own",
		why:       "each per-entry question walks on the engine it is asked of (Engine.Walk), on that engine's answers and evaluation environment; a one-entry New per question built a gaa.API, a vocabulary and a domain each time",
		files:     []string{"internal/eacl/reason/*.go"},
		nonTest:   true,
		forbidden: `New\(nil,`,
		bad:       "\te, err := New(nil, []*eacl.EACL{{Source: \"entry\", Entries: []eacl.Entry{en}}}, Options{})",
	},
	{
		name:      "the threat level steps down in one place",
		why:       "writers raise the level and renew its hold; ids.Manager.Tick (internal/ids/level.go) is the one rule that lowers it, so no detector keeps a decay, a dwell or a step-down of its own",
		files:     []string{"**/*.go"},
		nonTest:   true,
		forbidden: `StepDown|stepDown|maybeDecay|lastTrans|Dwell|Lowers`,
		bad:       "\t\te.threat.StepDown(lower + 1)",
	},
	{
		name:      "the live stack trains no profile detector",
		why:       "a grant reports its legitimate pattern (class 7) and trains nothing; the live anomaly feed is the opt-in adaptive scorer, and ids.Detector is E8's (a guard takes one only through Config.Anomaly)",
		files:     []string{"internal/gaahttp/*.go", "cmd/**/*.go"},
		nonTest:   true,
		forbidden: `ids\.NewDetector\(`,
		bad:       "\t\tAnomaly:  ids.NewDetector(ids.DefaultAnomalyConfig()),",
	},
	{
		name:      "the reasoner judges no address by parsing it",
		why:       "a CIDR is a language, the strings net.ParseIP places in its block (conditions.Atoms.Exprs), so the address axis is searched like every other string axis and no witness is judged apart",
		files:     []string{"internal/eacl/reason/*.go"},
		nonTest:   true,
		forbidden: `net\.ParseIP|net\.IPNet`,
		bad:       "\tip := net.ParseIP(w)",
	},
	{
		name:      "the document root opens no os.File",
		why:       "a document is read once and closed: its descriptor is held by readDocument itself in four system calls and two allocations, where an os.File adds four fcntls, a failed epoll registration, a finalizer and three allocations",
		files:     []string{"internal/httpd/docroot_unix.go"},
		nonTest:   true,
		forbidden: `os\.(Open|OpenFile|ReadFile)\(|\.Stat\(\)`,
		bad:       "\tf, err := os.Open(name)",
	},
	{
		name:      "a snapshot builds no entry slice",
		why:       "the blocks section renders from netblock.Set.Each, which copies addresses and deadlines under the set's lock and sorts outside it; Entries builds and sorts 48-byte entries",
		files:     []string{"internal/statestore/*.go"},
		nonTest:   true,
		forbidden: `\.Entries\(\)`,
		bad:       "\t\tdump: func(a *Adaptive, dst []byte) ([]byte, error) { return appendEntries(dst, a.c.Blocks.Entries()) },",
	},
}

// TestRatchets holds every row of the table against the tree, and the
// module's exported functions against the allowed set of uncalled ones.
func TestRatchets(t *testing.T) {
	for _, r := range ratchets {
		t.Run(r.name, func(t *testing.T) {
			forbidden := regexp.MustCompile(r.forbidden)
			if !forbidden.MatchString(r.bad) {
				t.Fatalf("pattern %q does not match its bad line %q", r.forbidden, r.bad)
			}
			var start, end *regexp.Regexp
			if r.region[0] != "" {
				start, end = regexp.MustCompile(r.region[0]), regexp.MustCompile(r.region[1])
			}
			files := ratchetFiles(t, r.files)
			if r.nonTest {
				files = slices.DeleteFunc(files, func(name string) bool { return strings.HasSuffix(name, "_test.go") })
			}
			for _, name := range files {
				text, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				in := start == nil
				for i, line := range strings.Split(string(text), "\n") {
					if start != nil && !in && start.MatchString(line) {
						in = true
					}
					if in && forbidden.MatchString(line) {
						t.Errorf("%s:%d: %s\n  %s: %s", name, i+1, line, r.name, r.why)
					}
					if start != nil && in && end.MatchString(line) {
						in = false
					}
				}
			}
		})
	}
	t.Run("no uncalled exports", testUncalledExports)
}

// ratchetFiles expands globs to the files they name, sorted, leaving
// out this file (its table spells every pattern).
func ratchetFiles(t *testing.T, globs []string) []string {
	t.Helper()
	var out []string
	for _, g := range globs {
		var matches []string
		if dir, pat, deep := strings.Cut(g, "**/"); deep {
			root := filepath.Clean("./" + dir)
			err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() && d.Name() == ".git" {
					return filepath.SkipDir // git's own files hold no sources
				}
				if ok, _ := filepath.Match(pat, d.Name()); ok && d.Type().IsRegular() {
					matches = append(matches, p)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			var err error
			if matches, err = filepath.Glob(g); err != nil {
				t.Fatal(err)
			}
		}
		if len(matches) == 0 {
			t.Errorf("%s matches no file", g)
		}
		for _, m := range matches {
			if m != ratchetFile {
				out = append(out, m)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// uncalledExportsFile is the allowed set of exported functions and
// methods that no non-test code calls: one sorted "name reason" line
// each. It is exact and meant only to shrink: a name that gains a
// caller or is deleted must leave it, and a new uncalled export fails
// until it is called, deleted or listed with its reason.
const uncalledExportsFile = "testdata/uncalled-exports.txt"

func testUncalledExports(t *testing.T) {
	got := uncalledExports(t)
	text, err := os.ReadFile(uncalledExportsFile)
	if err != nil {
		t.Fatal(err)
	}
	var allowed []string
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %s has no reason", uncalledExportsFile, name)
		}
		allowed = append(allowed, name)
	}
	if !slices.IsSorted(allowed) {
		t.Errorf("%s is not sorted", uncalledExportsFile)
	}
	for _, name := range got {
		if !slices.Contains(allowed, name) {
			t.Errorf("%s is exported but no non-test code calls it: call it, unexport it or delete it", name)
		}
	}
	for _, name := range allowed {
		if !slices.Contains(got, name) {
			t.Errorf("%s has a caller or is gone: delete its line from %s", name, uncalledExportsFile)
		}
	}
}

// uncalledExports type-checks the module's non-test code from source
// (the standard library from the export data of one go list call) and
// returns its exported functions and methods that no non-test code
// refers to outside their own body, as "pkg.Func" or "pkg.Type.Method"
// with pkg relative to the module. A method whose name is a method of
// any interface the program declares or imports may be called through
// that interface, so it is left out.
func uncalledExports(t *testing.T) []string {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Standard,Export,Module", "./...")
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
		Module                  *struct{ Path string }
	}
	var module []listed
	modulePath := ""
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		switch {
		case p.Standard:
			exports[p.ImportPath] = p.Export
		case p.Module != nil && len(p.GoFiles) > 0:
			module = append(module, p) // go list -deps puts a package after its imports
			modulePath = p.Module.Path
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	var files []*ast.File
	for _, p := range module {
		var pf []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			pf = append(pf, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, pf, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		files = append(files, pf...)
	}

	// Method names of every interface the program declares or imports:
	// the named ones in each package's scope, and the literal ones in the
	// module's code (whose embedded interfaces are named).
	ifaceMethods := map[string]bool{}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := range it.NumMethods() {
					ifaceMethods[it.Method(i).Name()] = true
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range checked {
		walk(p)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
	}

	// Every use of a function, by its generic origin, with where it is.
	uses := map[*types.Func][]token.Pos{}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			uses[fn.Origin()] = append(uses[fn.Origin()], id.Pos())
		}
	}
	var found []string
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn := info.Defs[fd.Name].(*types.Func)
			name := fn.Name()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if ifaceMethods[fn.Name()] {
					continue
				}
				typ := recv.Type()
				if ptr, ok := typ.(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				name = typ.(*types.Named).Obj().Name() + "." + name
			}
			if slices.ContainsFunc(uses[fn], func(p token.Pos) bool { return p < fd.Pos() || p >= fd.End() }) {
				continue
			}
			found = append(found, strings.TrimPrefix(fn.Pkg().Path(), modulePath+"/")+"."+name)
		}
	}
	slices.Sort(found)
	return found
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
