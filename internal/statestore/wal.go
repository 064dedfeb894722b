package statestore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
)

// The WAL is a sequence of length+CRC framed records:
//
//	[4B little-endian payload length][4B IEEE CRC32 of payload][payload]
//
// The payload is the JSON encoding of a Record. A crash (or an injected
// short write) can leave a torn frame at the tail; scanWAL stops at the
// first frame that does not check out and reports how many bytes it
// left behind, so recovery replays the longest valid prefix instead of
// refusing to start.

const frameHeaderSize = 8

// maxRecordSize bounds a single record payload; a length field above it
// is treated as corruption, not as an instruction to allocate gigabytes.
const maxRecordSize = 1 << 20

// Record is one journaled mutation.
type Record struct {
	// Seq is the monotonically increasing record sequence number;
	// snapshots store the sequence they cover so replay can skip
	// records already folded in (at-least-once across a compaction).
	Seq uint64 `json:"seq"`
	// Kind names the mutation ("block", "threat", "count", ...).
	Kind string `json:"k"`
	// Data is the kind-specific payload.
	Data json.RawMessage `json:"d,omitempty"`
}

// appendRecord appends the framed WAL entry of record seq of kind: what
// json.Marshal(Record) renders, written in place, data appending the "d"
// member's value (nothing leaves the member out, as omitempty does).
func appendRecord(dst []byte, seq uint64, kind string, data payload) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	dst = strconv.AppendUint(append(dst, `{"seq":`...), seq, 10)
	dst = appendString(append(dst, `,"k":`...), kind)
	member := len(dst)
	dst, err := data(append(dst, `,"d":`...))
	if err != nil {
		return dst[:start], err
	}
	if len(dst) == member+len(`,"d":`) {
		dst = dst[:member]
	}
	dst = append(dst, '}')
	body := dst[start+frameHeaderSize:]
	if len(body) > maxRecordSize {
		return dst[:start], fmt.Errorf("statestore: record of %d bytes exceeds the %d-byte frame limit", len(body), maxRecordSize)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(body))
	return dst, nil
}

// EncodeFrames renders records in the WAL frame format. It is the
// cluster-replication wire encoding: the same length+CRC framing that
// protects the on-disk journal protects the records a node ships to
// its peers.
func EncodeFrames(recs []Record) (out []byte, err error) {
	for _, rec := range recs {
		data := func(dst []byte) ([]byte, error) { return append(dst, rec.Data...), nil }
		if out, err = appendRecord(out, rec.Seq, rec.Kind, data); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecodeFrames parses framed records from data. It always returns the
// records of the longest valid prefix; a torn or corrupt tail is
// reported as a *FrameError (records stay usable) so a receiver can
// apply what checked out and count the corruption.
func DecodeFrames(data []byte) ([]Record, error) {
	res := scanWAL(data)
	if res.droppedBytes > 0 {
		return res.records, &FrameError{
			Reason:   res.droppedReason,
			ValidLen: res.validLen,
			Dropped:  res.droppedBytes,
		}
	}
	return res.records, nil
}

// FrameError describes the invalid tail DecodeFrames stopped at.
type FrameError struct {
	// Reason explains why the scan stopped.
	Reason string
	// ValidLen is the byte length of the valid record prefix.
	ValidLen int64
	// Dropped counts the bytes past the valid prefix.
	Dropped int64
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("statestore: invalid frame at offset %d (%s, %d bytes dropped)",
		e.ValidLen, e.Reason, e.Dropped)
}

// scanResult is what scanWAL recovered from one WAL file.
type scanResult struct {
	records []Record
	// validLen is the byte length of the longest valid record prefix.
	validLen int64
	// droppedBytes counts tail bytes past the valid prefix.
	droppedBytes int64
	// droppedReason explains why the scan stopped early ("" when the
	// whole file parsed).
	droppedReason string
}

// scanWAL walks framed records from the start of data, stopping at the
// first torn or corrupt frame.
func scanWAL(data []byte) scanResult {
	var res scanResult
	off := int64(0)
	total := int64(len(data))
	stop := func(reason string) scanResult {
		res.validLen = off
		res.droppedBytes = total - off
		res.droppedReason = reason
		return res
	}
	for off < total {
		if total-off < frameHeaderSize {
			return stop("torn frame header")
		}
		length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > maxRecordSize {
			return stop(fmt.Sprintf("frame length %d exceeds limit", length))
		}
		if total-off-frameHeaderSize < length {
			return stop("torn frame payload")
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+length]
		if crc32.ChecksumIEEE(payload) != sum {
			return stop("payload CRC mismatch")
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return stop("payload not a record: " + err.Error())
		}
		res.records = append(res.records, rec)
		off += frameHeaderSize + length
	}
	res.validLen = off
	return res
}
