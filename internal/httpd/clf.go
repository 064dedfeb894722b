package httpd

import (
	"strconv"
	"sync/atomic"
	"time"

	"gaaapi/internal/gaa"
)

const clfTimeLayout = "02/Jan/2006:15:04:05 -0700"

// clfStamp is the CLF timestamp of one second in one zone, rendered
// once for every line logged in it.
type clfStamp struct {
	unix   int64
	offset int
	text   string
}

// appendCLFTime appends t in clfTimeLayout, reusing the rendering in
// last when t falls in the same second at the same zone offset (a clock
// that steps backwards, or two zones alternating, simply re-render). A
// nil last renders every time.
func appendCLFTime(dst []byte, t time.Time, last *atomic.Pointer[clfStamp]) []byte {
	if last == nil {
		return t.AppendFormat(dst, clfTimeLayout)
	}
	unix := t.Unix()
	_, offset := t.Zone()
	st := last.Load()
	if st == nil || st.unix != unix || st.offset != offset {
		st = &clfStamp{unix: unix, offset: offset, text: t.Format(clfTimeLayout)}
		last.Store(st)
	}
	return append(dst, st.text...)
}

// FormatCLF renders one NCSA Common Log Format line — the log format
// Almgren et al.'s offline monitor (paper section 10, related work)
// analyzes, kept here so the substrate's logs are comparable:
//
//	host ident authuser [date] "request" status bytes
func FormatCLF(rec *RequestRec, status, bytes int) string {
	var buf [192]byte // longer lines grow onto the heap, then get copied
	return string(AppendCLF(buf[:0], rec, status, bytes))
}

// AppendCLF appends the line FormatCLF renders to dst and returns the
// extended buffer; it allocates only to grow dst.
func AppendCLF(dst []byte, rec *RequestRec, status, bytes int) []byte {
	return appendCLF(dst, rec, status, bytes, nil)
}

func appendCLF(dst []byte, rec *RequestRec, status, bytes int, lastTime *atomic.Pointer[clfStamp]) []byte {
	dst = append(dst, rec.ClientIP...)
	dst = append(dst, " - "...)
	if rec.User == "" {
		dst = append(dst, '-')
	} else {
		dst = append(dst, rec.User...)
	}
	dst = append(dst, " ["...)
	dst = appendCLFTime(dst, rec.Time, lastTime)
	dst = append(dst, "] "...)
	dst = gaa.AppendQuoted(dst, rec.URI)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(status), 10)
	dst = append(dst, ' ')
	if bytes > 0 {
		dst = strconv.AppendInt(dst, int64(bytes), 10)
	} else {
		dst = append(dst, '-')
	}
	return dst
}
