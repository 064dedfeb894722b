package gaaapi

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gaaapi/internal/costpin"
)

const (
	costTableBegin = "<!-- cost table: generated from internal/*/testdata/cost.golden; go test . -run TestDesignCostTable -update rewrites it -->\n"
	costTableEnd   = "<!-- end of cost table -->\n"
)

// TestDesignCostTable holds DESIGN.md §5.4's table to the packages' cost
// ledgers (internal/costpin): the table between its markers is every
// row of every golden, and -update regenerates it.
func TestDesignCostTable(t *testing.T) {
	goldens, err := filepath.Glob("internal/*/testdata/cost.golden")
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no cost ledgers found (%v)", err)
	}
	var b strings.Builder
	b.WriteString(costTableBegin + "| Package | Row | Cost | What, and who keeps it |\n|---|---|---|---|\n")
	for _, path := range goldens {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.Base(filepath.Dir(filepath.Dir(path)))
		for _, l := range strings.Split(strings.TrimSuffix(string(text), "\n"), "\n") {
			if !strings.HasPrefix(l, "#") {
				fmt.Fprintf(&b, "| `%s` | %s |\n", pkg, strings.ReplaceAll(l, "\t", " | "))
			}
		}
	}
	b.WriteString(costTableEnd)
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(text)
	i, j := strings.Index(design, costTableBegin), strings.Index(design, costTableEnd)
	if i < 0 || j < i {
		t.Fatal("DESIGN.md has no cost table markers")
	}
	j += len(costTableEnd)
	if *costpin.Update {
		if err := os.WriteFile("DESIGN.md", []byte(design[:i]+b.String()+design[j:]), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if design[i:j] != b.String() {
		t.Errorf("DESIGN.md §5.4's cost table differs from the cost ledgers; go test . -run TestDesignCostTable -update regenerates it")
	}
}
