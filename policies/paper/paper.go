// Package paper is the paper's section 7 policies as the reproduction
// reads them: the four shipped .eacl files of this directory, embedded
// verbatim, so the experiments, the tests and eaclint all read one
// text.
package paper

import (
	_ "embed"
	"strings"
)

var (
	// System71 is the section 7.1 system-wide policy: no access at high
	// threat, mandatory (narrow).
	//go:embed system-7.1.eacl
	System71 string
	// Local71 is the section 7.1 local policy: authentication required
	// above low threat.
	//go:embed local-7.1.eacl
	Local71 string
	// System72 is the section 7.2 system-wide policy: the BadGuys
	// blacklist, mandatory.
	//go:embed system-7.2.eacl
	System72 string
	// Local72 is the section 7.2 local policy: the CGI-exploit and DoS
	// signatures and the input-length bound. The bound is the runtime
	// value @max_input, so a reader seeds max_input (the paper's 1000);
	// unseeded, the overflow entry answers MAYBE.
	//go:embed local-7.2.eacl
	Local72 string
)

// Without returns policy with every rr_cond_<condType> line dropped:
// Without(Local72, "notify") is the paper's section 8 configuration
// "without notification".
func Without(policy, condType string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(policy, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "rr_cond_"+condType {
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}
