package httpd

import "strconv"

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
	dst = append(dst, rec.ClientIP...)
	dst = append(dst, " - "...)
	if rec.User == "" {
		dst = append(dst, '-')
	} else {
		dst = append(dst, rec.User...)
	}
	dst = append(dst, " ["...)
	dst = rec.Time.AppendFormat(dst, "02/Jan/2006:15:04:05 -0700")
	dst = append(dst, "] "...)
	dst = strconv.AppendQuote(dst, rec.URI)
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
