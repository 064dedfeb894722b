// Package audit implements the audit-record service behind
// rr_cond_audit / post_cond_audit and the general "generating audit
// records" countermeasure of the paper's section 1.
package audit

import (
	"maps"
	"slices"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// Record is one structured audit record.
type Record struct {
	Time     time.Time         `json:"time"`
	Kind     string            `json:"kind"`               // e.g. "authorization", "attack", "post"
	Object   string            `json:"object,omitempty"`   // protected object
	Right    string            `json:"right,omitempty"`    // requested right
	Decision string            `json:"decision,omitempty"` // yes/no/maybe
	ClientIP string            `json:"client_ip,omitempty"`
	User     string            `json:"user,omitempty"`
	Info     string            `json:"info,omitempty"`
	Details  map[string]string `json:"details,omitempty"`
}

// Logger consumes audit records.
type Logger interface {
	Log(r Record) error
}

// LoggerFunc adapts a function to Logger.
type LoggerFunc func(Record) error

// Log implements Logger.
func (f LoggerFunc) Log(r Record) error { return f(r) }

// Tail keeps the last n values put into it and counts all of them. Its
// buffer is allocated by the first Put, so an idle Tail costs nothing.
// Safe for concurrent use; the one ring behind Ring and notify.Mailbox.
type Tail[T any] struct {
	mu       sync.Mutex
	n, total int // capacity; values ever put
	buf      []T
}

// NewTail returns a tail holding up to n values (minimum 1).
func NewTail[T any](n int) *Tail[T] { return &Tail[T]{n: max(n, 1)} }

// Put appends v, evicting the oldest value once n are held.
func (t *Tail[T]) Put(v T) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.buf == nil {
		t.buf = make([]T, t.n)
	}
	t.buf[t.total%t.n] = v
	t.total++
}

// Values returns the retained values, oldest first.
func (t *Tail[T]) Values() []T {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= t.n {
		return slices.Clone(t.buf[:t.total])
	}
	next := t.total % t.n
	return slices.Concat(t.buf[next:], t.buf[:next])
}

// Len returns how many values are retained and how many were ever put.
func (t *Tail[T]) Len() (kept, total int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return min(t.total, t.n), t.total
}

// MaxField bounds each string a Ring keeps and the URI an alert quotes,
// so what the response path keeps per attack does not grow with the
// request line: 4 KiB, past which httpd's access log drops a buffer too.
const MaxField = 4096

// Clip returns s, or if s is longer than MaxField a copy of its first
// MaxField bytes cut back to a rune boundary: a bare substring would pin
// the whole original.
func Clip(s string) string {
	if len(s) <= MaxField {
		return s
	}
	cut := MaxField // a rune starts at most UTFMax-1 bytes back
	for cut > MaxField-utf8.UTFMax+1 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return strings.Clone(s[:cut])
}

// Ring keeps the last N records in memory, each string field at most
// MaxField bytes; older records are evicted. Safe for concurrent use.
// Handy for tests and for the admin endpoint.
type Ring struct{ tail *Tail[Record] }

// NewRing returns a ring holding up to n records (minimum 1).
func NewRing(n int) *Ring { return &Ring{tail: NewTail[Record](n)} }

// Log implements Logger.
func (r *Ring) Log(rec Record) error {
	// Fields that sum to at most MaxField cannot hold one over it: a
	// single test on the path every authorization decision takes.
	if len(rec.Kind)+len(rec.Object)+len(rec.Right)+len(rec.Decision)+len(rec.ClientIP)+len(rec.User)+len(rec.Info) > MaxField || rec.Details != nil {
		rec.Kind, rec.Object, rec.Right = Clip(rec.Kind), Clip(rec.Object), Clip(rec.Right)
		rec.Decision, rec.ClientIP, rec.User, rec.Info = Clip(rec.Decision), Clip(rec.ClientIP), Clip(rec.User), Clip(rec.Info)
		for _, v := range rec.Details {
			if len(v) > MaxField { // clip a copy: the map is the caller's
				rec.Details = maps.Clone(rec.Details)
				for k, v := range rec.Details {
					rec.Details[k] = Clip(v)
				}
				break
			}
		}
	}
	r.tail.Put(rec)
	return nil
}

// Records returns the retained records, oldest first.
func (r *Ring) Records() []Record { return r.tail.Values() }

// Len returns the number of retained records.
func (r *Ring) Len() int {
	n, _ := r.tail.Len()
	return n
}

// Discard drops every record.
var Discard Logger = LoggerFunc(func(Record) error { return nil })
