package ids

import (
	"fmt"
	"slices"
	"testing"

	"gaaapi/internal/costpin"
)

// TestCost is the package's cost ledger (internal/costpin): what the
// anomaly detector's per-grant Observe allocates and what its full
// profiles keep, each in testdata/cost.golden. The tests after it pin
// parts of it by name.
func TestCost(t *testing.T) {
	costpin.Check(t, slices.Concat(observeRows(t), profileHeapRows(t)))
}

func TestObserveKnownPrincipalZeroAlloc(t *testing.T) { costpin.CheckRows(t, observeRows(t)) }
func TestDetectorProfileHeap(t *testing.T)            { costpin.CheckRows(t, profileHeapRows(t)) }

// observeRows are Observe on principals the detector already profiles,
// full or not, at each input-length band.
func observeRows(t *testing.T) []costpin.Row {
	d := trainedDetector(t)
	fillProfile(d, "carol")
	observe := func(principal, path string) func() {
		return func() {
			for _, n := range []int{20, fullBand, 1500} {
				d.Observe(principal, path, n)
			}
		}
	}
	return []costpin.Row{
		{Name: "Observe, known principal and path", What: "nothing: the path hash is seeded maphash over the string", Run: observe("alice", "/index.html")},
		{Name: "Observe, full profile, known path", What: "nothing: a full set grows no more", Run: observe("carol", "/full/7")},
		{Name: "Observe, full profile, new path", What: "nothing, as for a known path", Run: observe("carol", "/never-seen")},
	}
}

// profileHeapRows is what 500 full profiles keep.
func profileHeapRows(t *testing.T) []costpin.Row {
	const principals = 500
	var full *Detector
	t.Cleanup(func() {
		if full == nil {
			return // not measured
		}
		if n := len(full.profiles["10.1.0.0"].paths); n != maxProfilePaths {
			t.Errorf("profile holds %d paths, want a full %d", n, maxProfilePaths)
		}
	})
	return []costpin.Row{{Name: "500 full profiles", What: "each its path hashes (2 KiB) and moments, and no path: ≤ 3 KiB a profile", MaxBytes: principals * (3 << 10), Run: func() {
		full = NewDetector(DefaultAnomalyConfig())
		for p := 0; p < principals; p++ {
			ip := fmt.Sprintf("10.1.%d.%d", p>>8, p&0xff)
			for i := 0; i < maxProfilePaths; i++ {
				// A fresh string per request, as the server parses one.
				full.Train(ip, fmt.Sprintf("/site/dir%03d/page%03d.html", i%17, i), 20)
			}
		}
	}}}
}
