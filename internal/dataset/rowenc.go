package dataset

import (
	"bytes"
	"time"
)

// rowEnc is the per-sink encoder state behind the csvAppend* row codecs: an
// incremental RFC3339Nano timestamp cache. It is a bit-exact acceleration,
// not an alternative encoding — it replays verbatim pieces of
// time.AppendFormat output around fixed-width seconds and fraction digits,
// so the golden dataset hashes cannot move. The zero value is ready to use;
// like the sinks that own one, a rowEnc is single-goroutine.
type rowEnc struct {
	tc timeCache
}

// quoteT is quoteT through the incremental timestamp cache.
func (e *rowEnc) quoteT(dst []byte, t time.Time) []byte { return e.tc.append(dst, t) }

// timeCache accelerates RFC3339Nano formatting for the common case of the
// campaign clock: consecutive timestamps land in the same wall minute, so
// only the seconds and fraction change. The cache holds the minute prefix
// ("YYYY-MM-DDTHH:MM:") and zone suffix of one fully-formatted timestamp,
// validated structurally against time.AppendFormat's own output; while
// later timestamps stay in that minute (and zone offset), the formatted
// form is prefix + 2-digit seconds + fraction + suffix, each piece either a
// verbatim copy of AppendFormat output or trivially fixed-width. Any
// structural surprise (5-digit years, sub-minute zone offsets, …) fails
// validation and every call falls back to the full AppendFormat.
type timeCache struct {
	valid   bool
	minute  int64    // floor(unix/60) of the validated minute
	offset  int      // zone offset in seconds
	prefix  [17]byte // "YYYY-MM-DDTHH:MM:"
	suffix  []byte   // zone suffix after seconds+fraction ("Z", "-05:00", …)
	scratch []byte   // fraction scratch for validation
}

func (c *timeCache) append(dst []byte, t time.Time) []byte {
	unix := t.Unix()
	_, off := t.Zone()
	min := unix / 60
	if unix < 0 && unix%60 != 0 {
		min-- // floor toward -inf so sec stays in [0, 60)
	}
	if c.valid && min == c.minute && off == c.offset {
		sec := int(unix - min*60)
		dst = append(dst, c.prefix[:]...)
		dst = append(dst, '0'+byte(sec/10), '0'+byte(sec%10))
		dst = appendNanoFrac(dst, t.Nanosecond())
		return append(dst, c.suffix...)
	}
	n := len(dst)
	dst = t.AppendFormat(dst, timeLayout)
	c.prime(dst[n:], unix, off, t.Nanosecond(), min)
	return dst
}

// prime revalidates the cache from one full AppendFormat rendering. It only
// accepts output it can reconstruct exactly: the RFC3339 field separators in
// place (which pins a 4-digit year), the seconds digits matching the unix
// second, and the fraction matching appendNanoFrac — then the prefix and
// zone suffix are verbatim slices of real AppendFormat output, constant for
// any other instant in the same minute under the same offset.
func (c *timeCache) prime(buf []byte, unix int64, off int, nsec int, min int64) {
	c.valid = false
	if len(buf) < 20 || buf[4] != '-' || buf[7] != '-' || buf[10] != 'T' || buf[13] != ':' || buf[16] != ':' {
		return
	}
	sec := int(unix - min*60)
	if sec < 0 || sec > 59 || buf[17] != '0'+byte(sec/10) || buf[18] != '0'+byte(sec%10) {
		return
	}
	c.scratch = appendNanoFrac(c.scratch[:0], nsec)
	fracEnd := 19 + len(c.scratch)
	if fracEnd > len(buf) || !bytes.Equal(buf[19:fracEnd], c.scratch) {
		return
	}
	copy(c.prefix[:], buf[:17])
	c.suffix = append(c.suffix[:0], buf[fracEnd:]...)
	c.minute, c.offset, c.valid = min, off, true
}

// appendNanoFrac appends RFC3339Nano's fractional-second field: nothing for
// zero, otherwise '.' plus the 9-digit nanosecond count with trailing zeros
// removed — exactly the ".999999999" layout element.
func appendNanoFrac(dst []byte, nsec int) []byte {
	if nsec == 0 {
		return dst
	}
	var tmp [9]byte
	for i := 8; i >= 0; i-- {
		tmp[i] = '0' + byte(nsec%10)
		nsec /= 10
	}
	n := 9
	for tmp[n-1] == '0' {
		n--
	}
	dst = append(dst, '.')
	return append(dst, tmp[:n]...)
}
