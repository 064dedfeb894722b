package statestore

import (
	"encoding/json"
	"strings"
	"time"
	"unicode/utf8"

	"gaaapi/internal/groups"
	"gaaapi/internal/netblock"
)

// A payload appends one record's data to dst as json.Marshal renders it.
type payload func(dst []byte) ([]byte, error)

// appendValue appends json.Marshal(v). Block and group payloads, most of
// the journal and of a snapshot, are written by hand: the same bytes,
// without reflection (FuzzJournalRecord, TestSnapshotSectionsAreMarshal).
func appendValue(dst []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case netblock.Event:
		return appendBlock(dst, v)
	case groups.Event:
		return appendGroup(dst, v)
	}
	data, err := json.Marshal(v)
	return append(dst, data...), err
}

func appendBlock(dst []byte, ev netblock.Event) ([]byte, error) {
	dst = append(dst, '{')
	if ev.Unblock {
		dst = append(dst, `"unblock":true,`...)
	}
	dst, err := appendExpiry(appendString(append(dst, `"addr":`...), ev.Addr), ev.Expiry)
	return append(dst, '}'), err
}

func appendGroup(dst []byte, ev groups.Event) ([]byte, error) {
	dst = appendString(append(dst, `{"group":`...), ev.Group)
	dst = appendString(append(dst, `,"member":`...), ev.Member)
	if ev.Remove {
		dst = append(dst, `,"remove":true`...)
	}
	return append(dst, '}'), nil
}

// appendEntries appends json.Marshal of the entries each yields in
// turn (netblock.Set.Each), the blocks section.
func appendEntries(dst []byte, each func(func(netblock.Entry) error) error) ([]byte, error) {
	start, n := len(dst), 0
	dst = append(dst, '[')
	err := each(func(e netblock.Entry) (err error) {
		dst = appendString(append(comma(dst, n), `{"addr":`...), e.Addr)
		if n++; e.Permanent {
			dst = append(dst, `,"permanent":true`...)
		}
		dst, err = appendExpiry(dst, e.Expiry)
		dst = append(dst, '}')
		return err
	})
	if n == 0 {
		return append(dst[:start], "null"...), err
	}
	return append(dst, ']'), err
}

// appendMembers appends json.Marshal of s's members map, the groups
// section: each sorted group name with its sorted members.
func appendMembers(dst []byte, s *groups.Store) []byte {
	dst = append(dst, '{')
	for i, g := range s.Groups() {
		dst = append(appendString(comma(dst, i), g), ':', '[')
		for j, m := range s.Members(g) {
			dst = appendString(comma(dst, j), m)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// comma separates the i-th element of a JSON list from the one before.
func comma(dst []byte, i int) []byte {
	if i > 0 {
		return append(dst, ',')
	}
	return dst
}

// appendExpiry appends `,"expiry":` and json.Marshal(t). A time RFC 3339
// may not carry (a year outside 0–9999, a zone ≥ 20 h from UTC) goes to
// json.Marshal, which renders it or returns its error.
func appendExpiry(dst []byte, t time.Time) ([]byte, error) {
	dst = append(dst, `,"expiry":"`...)
	start := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	if zone := dst[len(dst)-6:]; dst[start+4] != '-' ||
		zone[5] != 'Z' && (zone[0] != '+' && zone[0] != '-' || zone[1] > '1') {
		data, err := json.Marshal(t)
		return append(dst[:start-1], data...), err
	}
	return append(dst, '"'), nil
}

// appendString appends s quoted as encoding/json quotes it, escaping
// '<', '>', '&', U+2028, U+2029 and invalid UTF-8 (as U+FFFD) too.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
		}
		if r >= 0x20 && r != '"' && r != '\\' && r != '<' && r != '>' && r != '&' && r != 0x2028 && r != 0x2029 && (r != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		dst = append(dst, s[start:i]...)
		if k := strings.IndexRune("\"\\\b\t\n\f\r", r); k >= 0 {
			dst = append(dst, '\\', `"\btnfr`[k])
		} else {
			dst = append(dst, '\\', 'u', hex[r>>12], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
