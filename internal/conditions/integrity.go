package conditions

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
)

// fileSHA256Evaluator implements post_cond_file_sha256 with a value of
// "<path> <hex digest>": after the operation completes, the file's
// content hash must still match. This realizes the paper's example of
// post-execution integrity checking ("alerting that a particular
// critical file (e.g., /etc/passwd) was modified can trigger a process
// to check the contents of the file", section 1). A mismatch evaluates
// NO, failing the post-condition status.
type fileSHA256Evaluator struct{}

// parseSHA256 reads "<path> <64 hex digits>" and returns the digest in
// HashFile's lower case. A value of the wrong field count names no
// file (path is ""); a bad digest comes back beside the path it was
// written for.
func parseSHA256(value string) (path, digest string, err error) {
	fields := strings.Fields(value)
	if len(fields) != 2 {
		return "", "", fmt.Errorf("want \"<path> <sha256 hex>\", got %q", value)
	}
	path, digest = fields[0], strings.ToLower(fields[1])
	if len(digest) != sha256.Size*2 {
		return path, "", fmt.Errorf("digest %q is %d hex digits, want %d", fields[1], len(digest), sha256.Size*2)
	}
	if _, err := hex.DecodeString(digest); err != nil {
		return path, "", fmt.Errorf("digest %q is not hex", fields[1])
	}
	return path, digest, nil
}

func (fileSHA256Evaluator) atoms(value string) (Atoms, error) {
	_, _, err := parseSHA256(value)
	return Atoms{Ambient: true}, err
}

func (fileSHA256Evaluator) Evaluate(_ context.Context, cond eacl.Condition, _ *gaa.Request) gaa.Outcome {
	path, want, err := parseSHA256(cond.Value)
	if path == "" {
		return malformed(err)
	}
	if err != nil {
		// A check no file content can pass fails; it does not become
		// uncertain.
		return gaa.Outcome{Result: gaa.No, Class: gaa.ClassRequirement, Err: err,
			Detail: "cannot match " + path}
	}
	got, err := HashFile(path)
	if err != nil {
		return gaa.Outcome{Result: gaa.No, Class: gaa.ClassRequirement, Err: err,
			Detail: "cannot hash " + path}
	}
	if got == want {
		return gaa.MetOutcome(gaa.ClassRequirement, path+" unchanged")
	}
	return gaa.FailedOutcome(gaa.ClassRequirement,
		fmt.Sprintf("%s modified: sha256 %s, expected %s", path, got, want))
}

// HashFile returns the lowercase hex SHA-256 of the file's contents;
// policy authors use it (via cmd/eaclint -hash) to pin integrity
// conditions.
func HashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
