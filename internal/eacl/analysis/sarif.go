package analysis

import (
	"encoding/json"
)

// SARIF 2.1.0 export, shaped for GitHub code scanning: one run, the
// full rule catalog in the tool driver, one result per diagnostic.
// Only the fields code-scanning consumers read are emitted, so the
// document stays small and schema-valid.

// Report is the stable machine-readable envelope -json emits. Version
// identifies the schema of the findings array; bump it only for
// breaking changes.
type Report struct {
	Version  int          `json:"version"`
	Findings []Diagnostic `json:"findings"`
}

// MarshalJSON adds the string severity alongside Diagnostic's plain
// fields, keeping the wire schema independent of the Go enum values.
func (d Diagnostic) MarshalJSON() ([]byte, error) {
	type plain Diagnostic // drop methods to avoid recursion
	return json.Marshal(struct {
		plain
		Severity string `json:"severity"`
	}{plain(d), d.Severity.String()})
}

// JSONReport renders diagnostics as the -json document.
func JSONReport(diags []Diagnostic) ([]byte, error) {
	if diags == nil {
		diags = []Diagnostic{}
	}
	return json.MarshalIndent(Report{Version: 1, Findings: diags}, "", "  ")
}

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	Name             string       `json:"name"`
	ShortDescription sarifMessage `json:"shortDescription"`
	Help             sarifMessage `json:"help"`
	DefaultConfig    sarifConfig  `json:"defaultConfiguration"`
}

type sarifConfig struct {
	Level string `json:"level"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine int `json:"startLine"`
}

// SARIFReport renders diagnostics as a SARIF 2.1.0 log with the full
// rule catalog, ready for `gh code-scanning` upload.
func SARIFReport(diags []Diagnostic) ([]byte, error) {
	catalog := Catalog()
	index := make(map[string]int, len(catalog))
	rules := make([]sarifRule, len(catalog))
	for i, m := range catalog {
		index[m.Code] = i
		rules[i] = sarifRule{
			ID:               m.Code,
			Name:             m.Name,
			ShortDescription: sarifMessage{Text: m.Summary},
			Help:             sarifMessage{Text: "Fix: " + m.Fix},
			DefaultConfig:    sarifConfig{Level: m.Severity.String()},
		}
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		// SARIF regions are 1-based; file-level findings anchor at the top.
		line := max(d.Line, 1)
		results = append(results, sarifResult{
			RuleID:    d.Code,
			RuleIndex: index[d.Code],
			Level:     d.Severity.String(),
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: d.File},
					Region:           sarifRegion{StartLine: line},
				},
			}},
		})
	}
	return json.MarshalIndent(sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "eaclint", InformationURI: "https://github.com/gaaapi/gaaapi", Rules: rules}},
			Results: results,
		}},
	}, "", "  ")
}
