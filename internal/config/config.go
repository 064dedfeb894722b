// Package config implements the GAA-API configuration files of the
// paper's section 6 step 1: "gaa_initialize ... extract and register
// condition evaluation and policy retrieval routines from the system
// and local configuration files". A configuration file selects which
// built-in routines serve which (condition type, defining authority)
// pairs:
//
//	# type        def_auth   routine
//	condition system_threat_level local system_threat_level
//	condition regex              gnu    regex
//	condition accessid_USER      apache accessid_USER
//	action    notify             local  notify
//	action    update_log         local  update_log
//
// The routine column names a built-in from package conditions or
// package actions (the "condition" / "action" keywords are both
// accepted for either namespace; they document intent).
package config

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"gaaapi/internal/actions"
	"gaaapi/internal/conditions"
	"gaaapi/internal/gaa"
)

// Line is one registration directive.
type Line struct {
	CondType string
	DefAuth  string
	Routine  string
	// Source position for diagnostics.
	LineNo int
}

// Config is a parsed configuration file.
type Config struct {
	Lines  []Line
	Source string
}

// Parse reads a configuration file.
func Parse(r io.Reader, source string) (*Config, error) {
	cfg := &Config{Source: source}
	sc := bufio.NewScanner(r)
	n := 0
	for sc.Scan() {
		n++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] != "condition" && fields[0] != "action" {
			return nil, fmt.Errorf("%s:%d: unknown keyword %q", source, n, fields[0])
		}
		if len(fields) != 4 {
			return nil, fmt.Errorf("%s:%d: want \"%s <type> <def_auth> <routine>\"", source, n, fields[0])
		}
		cfg.Lines = append(cfg.Lines, Line{
			CondType: fields[1],
			DefAuth:  fields[2],
			Routine:  fields[3],
			LineNo:   n,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", source, err)
	}
	return cfg, nil
}

// ParseString parses a configuration from a string.
func ParseString(s string) (*Config, error) {
	return Parse(strings.NewReader(s), "inline")
}

// ParseFile parses the configuration stored at path.
func ParseFile(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open config: %w", err)
	}
	defer f.Close()
	return Parse(f, path)
}

// Deps carries the substrate services the registered routines need.
type Deps struct {
	Conditions conditions.Deps
	Actions    actions.Deps
}

// Apply registers every configured routine on api. Unknown routine
// names are an error (a policy referencing them would silently evaluate
// to MAYBE forever).
func (c *Config) Apply(api *gaa.API, deps Deps) error {
	for _, l := range c.Lines {
		if ev, ok := conditions.Builtin(l.Routine, deps.Conditions); ok {
			api.Register(l.CondType, l.DefAuth, ev)
			continue
		}
		if ev, ok := actions.Builtin(l.Routine, deps.Actions, api.Now); ok {
			api.Register(l.CondType, l.DefAuth, ev)
			continue
		}
		return fmt.Errorf("%s:%d: unknown routine %q", c.Source, l.LineNo, l.Routine)
	}
	return nil
}
