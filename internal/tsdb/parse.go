package tsdb

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"unicode"
	"unicode/utf8"
)

// One-pass text ingest over an in-memory buffer. Every writer in this
// repository emits text in timestamp order, so the common case is a
// sorted file: each line either opens a new row (a later timestamp) or
// extends the last one (the same timestamp), and its items append to one
// flat arena that the rows slice at the end (CSR, as the v2 mapped layout
// stores them). Only the first out-of-order line pays for a ts → row map;
// from then on a line that revisits an earlier row parks its items beside
// that row, and the rows are sorted by timestamp once at the end.
//
// Names are interned in input order, so the dictionary matches the
// streaming parser's first-seen order, and every row is sorted and
// deduplicated, so the result is identical (same fingerprint) to
// readSequential's for every input both accept; see
// TestReadBytesMatchesSequential and FuzzReadBytes.

// maxLineLen bounds one input line, matching the sequential parser's
// bufio.Scanner token limit so both paths accept the same language.
const maxLineLen = 16 * 1024 * 1024

// asciiSpace marks the ASCII whitespace bytes strings.Fields splits on.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// ReadBytes parses a database from the text transaction format held in
// memory. It accepts exactly the language Read accepts and produces an
// identical database (same dictionary order, same fingerprint).
//
// The line loop is zero-copy: no per-line string, map lookups via the
// compiler's string(b) key optimization. Semantics mirror the sequential
// parser exactly: lines are trimmed, '#' comments and blanks skipped, the
// timestamp is cut at the first tab (or, failing that, the first space),
// and items split on whitespace.
func ReadBytes(data []byte) (*DB, error) {
	ids := make(map[string]ItemID)
	var names []string
	// Reserve from byte counts, which fit the files Write emits exactly
	// (items are one more than the spaces on a line whose timestamp ends
	// at a tab), but never more than about the input's own size per array:
	// blank, comment and repeated lines would otherwise reserve tens of
	// bytes per input byte. Files whose rows average under 32 bytes grow
	// by append, and compact returns what the rows do not keep.
	lines := bytes.Count(data, []byte{'\n'}) + 1
	rowCap := min(lines, len(data)/32+1)
	trans := make([]Transaction, 0, rowCap)
	starts := make([]int, 0, rowCap+1) // row i's items are arena[starts[i]:starts[i+1]]
	// An item takes at least two bytes: its name and a separator.
	arena := make([]ItemID, 0, min(bytes.Count(data, []byte{' '})+lines, len(data)/2+1))

	var rows map[int64]int     // ts → row; built at the first out-of-order line
	var extra map[int][]ItemID // items of revisited rows other than the last
	lineNo := 0
	for off := 0; off < len(data); {
		lineNo++
		var line []byte
		if nl := bytes.IndexByte(data[off:], '\n'); nl >= 0 {
			line = data[off : off+nl]
			off += nl + 1
		} else {
			line = data[off:]
			off = len(data)
		}
		if len(line) > maxLineLen {
			return nil, fmt.Errorf("tsdb: line %d: line longer than %d bytes", lineNo, maxLineLen)
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		tsb, rest, ok := cutByte(line, '\t')
		if !ok {
			tsb, rest, ok = cutByte(line, ' ')
			if !ok {
				return nil, fmt.Errorf("tsdb: line %d: missing item list", lineNo)
			}
		}
		ts, err := parseTimestamp(bytes.TrimSpace(tsb))
		if err != nil {
			return nil, fmt.Errorf("tsdb: line %d: bad timestamp %q: %v", lineNo, tsb, err)
		}

		// Pick the row: the last one, a new one, or (out of order) an
		// earlier one whose items are parked in extra.
		row := len(trans) - 1
		switch {
		case row >= 0 && ts == trans[row].TS:
		case rows == nil && (row < 0 || ts > trans[row].TS):
			row = -1
		default:
			if rows == nil {
				rows = make(map[int64]int, len(trans))
				for i, tr := range trans {
					rows[tr.TS] = i
				}
				extra = make(map[int][]ItemID)
			}
			var seen bool
			if row, seen = rows[ts]; !seen {
				rows[ts] = len(trans)
				row = -1
			}
		}
		if row < 0 {
			row = len(trans)
			trans = append(trans, Transaction{TS: ts})
			starts = append(starts, len(arena))
		}

		n := len(arena)
		for len(rest) > 0 {
			tok := nextField(&rest)
			if tok == nil {
				break
			}
			id, ok := ids[string(tok)] // no alloc: map lookup on []byte key
			if !ok {
				name := string(tok)
				id = ItemID(len(names))
				ids[name] = id
				names = append(names, name)
			}
			arena = append(arena, id)
		}
		if len(arena) == n {
			return nil, fmt.Errorf("tsdb: line %d: empty transaction", lineNo)
		}
		if row != len(trans)-1 {
			extra[row] = append(extra[row], arena[n:]...)
			arena = arena[:n]
		}
	}

	starts = append(starts, len(arena))
	for i := range trans {
		items := arena[starts[i]:starts[i+1]:starts[i+1]]
		if x, ok := extra[i]; ok {
			items = append(items, x...)
		}
		trans[i].Items = sortDedup(items)
	}
	if rows != nil {
		slices.SortFunc(trans, func(a, b Transaction) int { return cmp.Compare(a.TS, b.TS) })
	}
	return &DB{Dict: &Dictionary{byName: ids, names: names}, Trans: compact(trans, cap(arena))}, nil
}

// compact copies the rows into exactly sized arrays when the item arena
// or the row slice holds more than twice what the rows keep (duplicate
// items, repeated timestamps, blank lines), so a DB retains about as much
// memory as its items and rows account for.
func compact(trans []Transaction, arenaCap int) []Transaction {
	total := 0
	for _, tr := range trans {
		total += len(tr.Items)
	}
	if arenaCap > 2*total {
		arena := make([]ItemID, 0, total)
		for i, tr := range trans {
			n := len(arena)
			arena = append(arena, tr.Items...)
			trans[i].Items = arena[n:len(arena):len(arena)]
		}
	}
	if cap(trans) > 2*len(trans) {
		trans = slices.Clone(trans)
	}
	return trans
}

// cutByte is strings.Cut for a byte separator on a []byte, allocation-free.
func cutByte(b []byte, sep byte) (before, after []byte, found bool) {
	if i := bytes.IndexByte(b, sep); i >= 0 {
		return b[:i], b[i+1:], true
	}
	return b, nil, false
}

// nextField returns the next whitespace-separated token of *rest and
// advances past it, with strings.Fields semantics: ASCII whitespace via a
// table, multi-byte runes through unicode.IsSpace. Returns nil when only
// whitespace remains.
func nextField(rest *[]byte) []byte {
	b := *rest
	i := 0
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += size
	}
	if i == len(b) {
		*rest = nil
		return nil
	}
	start := i
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if unicode.IsSpace(r) {
			break
		}
		i += size
	}
	*rest = b[i:]
	return b[start:i]
}

// parseTimestamp is strconv.ParseInt(string(b), 10, 64) over bytes,
// allocation-free, with the same accepted language (optional sign, base-10
// digits, overflow rejected).
func parseTimestamp(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("empty")
	}
	neg := false
	switch b[0] {
	case '-':
		neg = true
		b = b[1:]
	case '+':
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, fmt.Errorf("no digits")
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid digit %q", c)
		}
		d := uint64(c - '0')
		if v > (1<<63)/10 {
			return 0, fmt.Errorf("value out of range")
		}
		v = v*10 + d
	}
	if neg {
		if v > 1<<63 {
			return 0, fmt.Errorf("value out of range")
		}
		return -int64(v-1) - 1, nil // avoids overflow for exactly 1<<63
	}
	if v > 1<<63-1 {
		return 0, fmt.Errorf("value out of range")
	}
	return int64(v), nil
}

// sortDedup sorts an item list and removes duplicates in place.
func sortDedup(items []ItemID) []ItemID {
	slices.Sort(items)
	return slices.Compact(items)
}
