package experiments

import (
	"fmt"
	"io"
	"strings"

	"gaaapi/internal/ids"
	"gaaapi/internal/workload"
)

// E8 evaluates the anomaly detector (the paper's section 9 future
// work: "a simple profile building module and anomaly detector ... to
// support anomaly-based intrusion detection in addition to the
// signature-based"): profiles are trained per client on the
// legitimate mix, then scored against a legitimate holdout (false
// positives) and the attack classes replayed from trained clients
// (detections without any signature knowledge).
func E8(w io.Writer, opts Options) error {
	opts = opts.Defaults()
	det := ids.NewDetector(ids.DefaultAnomalyConfig())

	// Train: a focused client population so every profile crosses the
	// MinTraining threshold.
	clients := []string{"10.0.0.11", "10.0.0.12", "10.0.0.13", "10.0.0.14", "10.0.0.15"}
	var train []workload.Request
	for i, ip := range clients {
		train = append(train, workload.LegitFrom(ip, 400, opts.Seed+int64(i))...)
	}
	for _, r := range train {
		path, input := splitTarget(r.Target)
		det.Train(r.ClientIP, path, input)
	}

	// Holdout: same distribution, different seeds.
	var scored, falsePos int
	for i, ip := range clients {
		for _, r := range workload.LegitFrom(ip, 100, opts.Seed+100+int64(i)) {
			scored++
			path, input := splitTarget(r.Target)
			if det.Unusual(r.ClientIP, path, input) {
				falsePos++
			}
		}
	}

	// Attacks replayed from a trained client (an insider or a
	// compromised workstation): no signature is consulted.
	trainedClient := clients[0]
	if det.Trained(trainedClient) < 20 {
		return fmt.Errorf("E8: client %s under-trained", trainedClient)
	}

	tbl := Table{
		Title:  "E8: anomaly-based detection (paper section 9 future work)",
		Header: []string{"attack class", "anomaly score", "flagged"},
	}
	attacks := []workload.Request{
		workload.PhfScan(trainedClient),
		workload.TestCGIScan(trainedClient),
		workload.SlashFlood(trainedClient),
		workload.Nimda(trainedClient),
		workload.Overflow(trainedClient, 1200),
	}
	detected := 0
	for _, atk := range attacks {
		path, input := splitTarget(atk.Target)
		score := det.Score(trainedClient, path, input)
		flagged := det.Unusual(trainedClient, path, input)
		if flagged {
			detected++
		}
		tbl.AddRow(atk.Attack, fmt.Sprintf("%.2f", score), yesNo(flagged))
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("training: %d requests over %d clients; holdout: %d scored, false positives %d (%s)",
			len(train), len(clients), scored, falsePos, pct(100*float64(falsePos)/float64(max(scored, 1)))),
		fmt.Sprintf("anomaly threshold %.1f; detected %d/%d attack classes without signatures",
			det.Threshold(), detected, len(attacks)),
		"anomaly detection complements signatures: length-anomalous classes (overflow, phf) are",
		"caught without signature knowledge; low-volume probes still need the signature engine (E3)",
	)
	tbl.Fprint(w)

	// The headline claim: the input-length anomalies are caught with
	// zero signature knowledge and the holdout false-positive rate
	// stays below 5%.
	if detected < 2 {
		return fmt.Errorf("E8: only %d/%d attack classes flagged", detected, len(attacks))
	}
	if falsePos*20 > scored {
		return fmt.Errorf("E8: false positive rate %d/%d exceeds 5%%", falsePos, scored)
	}
	return nil
}

// splitTarget separates a request target into path and the input
// length the detector profiles (query length, matching the guard's
// InputLength extraction for GET requests).
func splitTarget(target string) (string, int) {
	path, query, _ := strings.Cut(target, "?")
	return path, len(query)
}
