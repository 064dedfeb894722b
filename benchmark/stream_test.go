package main

import (
	"math"
	"testing"
)

// One seed gives one stream: the hashes below change only when the
// generator does, and then every earlier result stops being comparable.
func TestStreamHashPinned(t *testing.T) {
	pins := map[string]string{
		streamBrowse: "c6457914b871f178",
		streamSiege:  "ada0e76ff63282bb",
		streamSprawl: "52d735f086d8c073",
	}
	for kind, want := range pins {
		if got := streamHash(kind, 2003, 2, 5000); got != want {
			t.Errorf("%s: stream hash %s, pinned %s", kind, got, want)
		}
		if again := streamHash(kind, 2003, 2, 5000); again != streamHash(kind, 2003, 2, 5000) {
			t.Errorf("%s: the same seed gave two streams", kind)
		}
		if streamHash(kind, 2004, 2, 5000) == want {
			t.Errorf("%s: seed 2004 gives seed 2003's stream", kind)
		}
	}
}

// A source must belong to exactly one worker's stream, and the siege
// mix must hold its shares with every blocked repeat coming after the
// attack that blocks it.
func TestSiegeStreamShape(t *testing.T) {
	const n = 20000
	owner := map[string]int{}
	for w := 0; w < 2; w++ {
		g := newGenerator(streamSiege, 7, w, n)
		var classes [3]int
		attacked := map[string]bool{}
		for i := 0; i < n; i++ {
			it := g.next()
			classes[it.class]++
			if prev, ok := owner[it.remote]; ok && prev != w {
				t.Fatalf("source %s appears in the streams of workers %d and %d", it.remote, prev, w)
			}
			owner[it.remote] = w
			switch it.class {
			case classAttack:
				if attacked[it.remote] {
					t.Fatalf("attack source %s is not fresh", it.remote)
				}
				attacked[it.remote] = true
			case classBlocked:
				if !attacked[it.remote] {
					t.Fatalf("request %d expects %s blocked before any attack from it", i, it.remote)
				}
			case classLegit:
				if attacked[it.remote] {
					t.Fatalf("legit request from attacker %s", it.remote)
				}
			}
		}
		for class, want := range map[int]float64{classLegit: 0.60, classAttack: 0.05, classBlocked: 0.35} {
			if got := float64(classes[class]) / n; math.Abs(got-want) > 0.02 {
				t.Errorf("worker %d: class %d share %.3f, want %.2f", w, class, got, want)
			}
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for ns := int64(1); ns <= 100000; ns++ {
		h.observe(ns)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%.2f) = %.0f, want %.0f within 1 %%", q, got, want)
		}
	}
	if got := h.mean(); math.Abs(got-50000.5) > 1 {
		t.Errorf("mean = %f, want 50000.5", got)
	}
	// Every value falls inside its bucket's bounds.
	for _, ns := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 123456, 1 << 30} {
		lo, hi := histBounds(histIndex(ns))
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d lands in bucket [%g,%g)", ns, lo, hi)
		}
	}
}
