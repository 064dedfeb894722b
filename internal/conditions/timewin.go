package conditions

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
)

// timeWindowEvaluator implements pre_cond_time_window: the request time
// must fall inside "HH:MM-HH:MM" with an optional day restriction
// ("Mon-Fri" or "Mon,Wed,Sat"). Windows may wrap midnight
// ("22:00-06:00"). It is a selector — the paper's "more restrictive
// organizational policies may be enforced after hours" switches entries
// on it.
type timeWindowEvaluator struct{}

// TimeWindow is the parsed form of a pre_cond_time_window value: a
// daily minute interval plus an optional weekday restriction. The
// evaluator tests the two dimensions independently (day-of-now must be
// in Days, minute-of-now in the interval), so windows wrapping midnight
// ("22:00-06:00") are [Start,1440)∪[0,End) on every listed day.
type TimeWindow struct {
	// Start and End are minutes-of-day; the window is [Start, End)
	// when Start <= End and wraps midnight when Start > End.
	Start, End int
	// Days[time.Weekday] reports whether the window is active on that
	// weekday. All true when the spec had no day restriction.
	Days [7]bool
}

// timeWindowTest is a parsed window beside the two fields it was
// written as, which the outcome details quote.
type timeWindowTest struct {
	gaa.NoChallenge
	TimeWindow
	window, days string
}

func parseTimeWindow(value string) (timeWindowTest, error) {
	var t timeWindowTest
	fields := strings.Fields(value)
	if len(fields) == 0 || len(fields) > 2 {
		return t, fmt.Errorf("want \"HH:MM-HH:MM [days]\", got %q", value)
	}
	var err error
	if t.Start, t.End, err = parseWindow(fields[0]); err != nil {
		return t, err
	}
	t.window = fields[0]
	if len(fields) == 1 {
		t.Days = [7]bool{true, true, true, true, true, true, true}
		return t, nil
	}
	t.days = fields[1]
	t.Days, err = parseDays(t.days)
	return t, err
}

// ParseTimeWindowSpec parses "HH:MM-HH:MM [days]" exactly as the
// runtime evaluator does.
func ParseTimeWindowSpec(value string) (TimeWindow, error) {
	t, err := parseTimeWindow(value)
	return t.TimeWindow, err
}

// contains tests the two dimensions of the window against an instant.
func (w TimeWindow) contains(at time.Time) (onDay, inside bool) {
	if !w.Days[at.Weekday()] {
		return false, false
	}
	cur := at.Hour()*60 + at.Minute()
	if w.Start <= w.End {
		return true, cur >= w.Start && cur < w.End
	}
	return true, cur >= w.Start || cur < w.End // wraps midnight
}

func (t timeWindowTest) EvalCompiled(req *gaa.Request) gaa.CondVerdict {
	_, inside := t.contains(req.Time)
	return selector(inside)
}

// CompileCond implements gaa.CondCompiler: the window bounds and the
// day set are resolved once; the per-request test is two integer
// comparisons.
func (timeWindowEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	return hoisted(parseTimeWindow(cond.Value))
}

func (timeWindowEvaluator) Evaluate(_ context.Context, cond eacl.Condition, req *gaa.Request) gaa.Outcome {
	t, err := parseTimeWindow(cond.Value)
	if err != nil {
		return malformed(err)
	}
	switch onDay, inside := t.contains(req.Time); {
	case !onDay:
		return gaa.FailedOutcome(gaa.ClassSelector, req.Time.Weekday().String()+" outside "+t.days)
	case inside:
		return gaa.MetOutcome(gaa.ClassSelector, "inside window "+t.window)
	default:
		return gaa.FailedOutcome(gaa.ClassSelector, "outside window "+t.window)
	}
}

// parseWindow parses "HH:MM-HH:MM" into minutes-of-day.
func parseWindow(s string) (start, end int, err error) {
	from, to, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("want HH:MM-HH:MM, got %q", s)
	}
	if start, err = parseHHMM(from); err != nil {
		return 0, 0, err
	}
	if end, err = parseHHMM(to); err != nil {
		return 0, 0, err
	}
	return start, end, nil
}

func parseHHMM(s string) (int, error) {
	t, err := time.Parse("15:04", s)
	if err != nil {
		return 0, fmt.Errorf("bad time %q: %w", s, err)
	}
	return t.Hour()*60 + t.Minute(), nil
}

var dayNames = map[string]time.Weekday{
	"sun": time.Sunday, "mon": time.Monday, "tue": time.Tuesday,
	"wed": time.Wednesday, "thu": time.Thursday, "fri": time.Friday,
	"sat": time.Saturday,
}

// parseDays reads a day spec: "Mon-Fri" (range, may wrap the week as
// in Sat-Mon), "Mon,Wed,Sat" (list) or a single day.
func parseDays(spec string) (days [7]bool, err error) {
	if from, to, ok := strings.Cut(spec, "-"); ok {
		first, err := parseDay(from)
		if err != nil {
			return days, err
		}
		last, err := parseDay(to)
		if err != nil {
			return days, err
		}
		for d := first; ; d = (d + 1) % 7 {
			days[d] = true
			if d == last {
				return days, nil
			}
		}
	}
	for _, part := range strings.Split(spec, ",") {
		d, err := parseDay(part)
		if err != nil {
			return days, err
		}
		days[d] = true
	}
	return days, nil
}

func parseDay(s string) (time.Weekday, error) {
	key := strings.ToLower(strings.TrimSpace(s))
	if len(key) > 3 {
		key = key[:3]
	}
	d, ok := dayNames[key]
	if !ok {
		return 0, fmt.Errorf("unknown day %q", s)
	}
	return d, nil
}

// Empty reports whether the window can never contain an instant: the
// minute interval is empty (Start == End without wrapping) or no day is
// active. A wrapping window (Start > End) is never empty.
func (w TimeWindow) Empty() bool {
	if w.Start == w.End {
		return true
	}
	for _, on := range w.Days {
		if on {
			return false
		}
	}
	return true
}

// minuteSpans returns the window's minute-of-day intervals.
func (w TimeWindow) minuteSpans() [][2]int {
	if w.Start <= w.End {
		return [][2]int{{w.Start, w.End}}
	}
	return [][2]int{{w.Start, 24 * 60}, {0, w.End}}
}

// Intersects reports whether some instant lies inside both windows:
// they share an active weekday and their minute intervals overlap.
func (w TimeWindow) Intersects(o TimeWindow) bool {
	shareDay := false
	for d := range w.Days {
		if w.Days[d] && o.Days[d] {
			shareDay = true
			break
		}
	}
	if !shareDay {
		return false
	}
	for _, a := range w.minuteSpans() {
		for _, b := range o.minuteSpans() {
			if a[0] < b[1] && b[0] < a[1] {
				return true
			}
		}
	}
	return false
}
