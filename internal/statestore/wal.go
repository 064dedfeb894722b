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

// appendFrame appends rec's framed WAL entry to dst. The payload is
// what json.Marshal(rec) renders, written in place: rec.Data is taken as
// encoding/json's own output (every caller marshals its value exactly
// once), and a kind the encoder would escape takes the json.Marshal path.
func appendFrame(dst []byte, rec Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	if plainASCII(rec.Kind) {
		dst = strconv.AppendUint(append(dst, `{"seq":`...), rec.Seq, 10)
		dst = append(append(dst, `,"k":"`...), rec.Kind...)
		dst = append(dst, '"')
		if len(rec.Data) > 0 {
			dst = append(append(dst, `,"d":`...), rec.Data...)
		}
		dst = append(dst, '}')
	} else {
		payload, err := json.Marshal(rec)
		if err != nil {
			return dst[:start], fmt.Errorf("statestore: encode record: %w", err)
		}
		dst = append(dst, payload...)
	}
	payload := dst[start+frameHeaderSize:]
	if len(payload) > maxRecordSize {
		return dst[:start], fmt.Errorf("statestore: record of %d bytes exceeds the %d-byte frame limit", len(payload), maxRecordSize)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// plainASCII reports whether encoding/json writes s between quotes
// unchanged: printable ASCII with none of the bytes it escapes.
func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// EncodeFrames renders records in the WAL frame format. It is the
// cluster-replication wire encoding: the same length+CRC framing that
// protects the on-disk journal protects the records a node ships to
// its peers.
func EncodeFrames(recs []Record) (out []byte, err error) {
	for _, rec := range recs {
		if out, err = appendFrame(out, rec); err != nil {
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
