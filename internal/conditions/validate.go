package conditions

import "gaaapi/internal/gaa"

// ValidateValue statically checks a condition value for the named
// built-in condition type: it is the error of the parse the type's
// evaluator runs first, so the static analyzer (internal/eacl/analysis)
// and the enforcer cannot read a value differently. A value it rejects
// is MAYBE for every request — a silent policy failure the paper's
// section 2 future-work tool is meant to catch before deployment.
//
// It returns nil for condition types without a value language
// (accessid_*, signature, redirect, ...) and for values carrying '@'
// runtime references, whose final shape is unknown until evaluation.
func ValidateValue(condType, value string) error {
	if gaa.HasValueRef(value) {
		return nil
	}
	var err error
	switch condType {
	case "regex":
		_, err = parseRegex(value, "")
	case "location":
		_, err = parseLocation(value, "")
	case "time_window":
		_, err = parseTimeWindow(value)
	case "threshold":
		_, err = parseThreshold(value)
	case "expr", "quota":
		_, err = parseCmp(value, "")
	case "system_threat_level":
		_, err = parseThreat(value, nil)
	case "file_sha256":
		_, _, err = parseSHA256(value)
	}
	return err
}
