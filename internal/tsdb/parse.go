package tsdb

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/bits"
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
// A token is found and hashed a machine word at a time (scanToken) and
// interned through an open-addressing table (internTable) that also
// stamps each item with the last row it joined, so a repeat within a row
// never reaches the arena. One counting sort by ItemID per block of rows
// (sortRows) then orders every row.
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
// The line loop is zero-copy: no per-line string, and a name's bytes are
// copied only the first time it is seen. Semantics mirror the sequential
// parser exactly: lines are trimmed, '#' comments and blanks skipped, the
// timestamp is cut at the first tab (or, failing that, the first space),
// and items split on whitespace.
func ReadBytes(data []byte) (*DB, error) {
	// Capped at its length, data's subslices tell their offset by their
	// capacity, and no word load can reach past the input.
	data = data[:len(data):len(data)]
	var tab internTable
	tab.init(newSeed())
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
	parked := 0                // items in extra
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

		// The items: rest ends where the trimmed line does, and the byte
		// there, if any, is whitespace or the newline, so a token scanned
		// a word at a time stops at the line's end by itself. A byte
		// ≥ 0x80, or a control byte inside a token, hands the rest of the
		// line to nextField, which decodes runes as strings.Fields does.
		n, tokens := len(arena), 0
		p := len(data) - cap(rest)
		end := p + len(rest)
		for p < end {
			c := data[p]
			if asciiSpace[c] {
				p++
				continue
			}
			if c < utf8.RuneSelf {
				h, w0, w1, q := scanToken(tab.seed, data, p)
				if q == end || asciiSpace[data[q]] {
					tokens++
					s := tab.home(h, w0, w1, q-p)
					if s == nil {
						s = tab.intern(h, w0, w1, data[p:q])
					}
					if s.row != row {
						s.row = row
						arena = append(arena, s.id)
					}
					p = q
					continue
				}
			}
			for rest := data[p:end]; ; {
				tok := nextField(&rest)
				if tok == nil {
					break
				}
				tokens++
				h, w0, w1 := hashToken(tab.seed, tok)
				if s := tab.intern(h, w0, w1, tok); s.row != row {
					s.row = row
					arena = append(arena, s.id)
				}
			}
			break
		}
		if tokens == 0 {
			return nil, fmt.Errorf("tsdb: line %d: empty transaction", lineNo)
		}
		if row != len(trans)-1 {
			extra[row] = append(extra[row], arena[n:]...)
			parked += len(arena) - n
			arena = arena[:n]
		}
	}
	starts = append(starts, len(arena))

	// Revisited rows gather their parked items, so every row is one range
	// of the arena again. The row stamps drop every repeat within a row
	// while lines only extend the last row; once a line revisits a row,
	// restamping the items it adds can let a repeat through into any row,
	// so then every sorted row is compacted.
	if rows != nil {
		joined := make([]ItemID, 0, len(arena)+parked)
		for i, lo := range starts[:len(trans)] {
			starts[i] = len(joined)
			joined = append(joined, arena[lo:starts[i+1]]...)
			joined = append(joined, extra[i]...)
		}
		starts[len(trans)] = len(joined)
		arena = joined
	}
	sortRows(arena, starts, tab.len())
	for i := range trans {
		items := arena[starts[i]:starts[i+1]:starts[i+1]]
		if rows != nil {
			items = slices.Compact(items)
		}
		trans[i].Items = items
	}
	if rows != nil {
		slices.SortFunc(trans, func(a, b Transaction) int { return cmp.Compare(a.TS, b.TS) })
	}
	return &DB{Dict: tab.dictionary(), Trans: compact(trans, cap(arena))}, nil
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

// Token words. A name is hashed as the sequence of its little-endian
// 8-byte words, the last one partial (0–7 bytes, zero-padded, the name's
// length in its top byte), so a name's hash does not depend on how it was
// found: scanToken, reading the input a word at a time, and hashToken,
// over a name's bytes, agree. Names with the same words have lengths
// that differ by less than 8, so the length's low byte tells them apart.
//
// The hash starts from a seed drawn afresh for each table, as Go's maps
// do, and folds each word in through the xor of a 128-bit product's
// halves, which also carries every bit into the low bits that pick a
// table slot: with a multiply alone, names that differ only past their
// first few bytes ("cat1xx", "cat2xx") would share one probe chain. The
// input may come from a client, and with a public hash or a word mix
// that a seed cannot hide, anyone could build millions of names with
// one hash: a plain xor-multiply, seeded or not, lets a flip of a
// word's top bit be cancelled by the same flip in the next word. IDs
// follow first-seen order, so no output depends on the seed.
const (
	lowBytes  = 0x0101010101010101
	highBytes = 0x8080808080808080
	wordMul   = 0x9e3779b97f4a7c15
)

// newSeed returns a random hash seed.
func newSeed() uint64 { return maphash.Bytes(maphash.MakeSeed(), nil) }

// stopBytes flags, in each byte's high bit, the bytes of w that stop a
// token on the word path: ≤ 0x20 (whitespace and control bytes) or
// ≥ 0x80 (the start of a multi-byte rune). A flag can spill into the
// bytes above a byte < 0x21 through the subtraction's borrow, so only the
// lowest flag is exact, and that is the one a scan reads.
func stopBytes(w uint64) uint64 {
	return ((w - 0x21*lowBytes) | w) & highBytes
}

// loadWord returns the 8 bytes of data at p as a little-endian word,
// zero-padded past the end of data. A zero byte stops a token, so a scan
// ends at the end of the input.
func loadWord(data []byte, p int) uint64 {
	if p+8 <= len(data) {
		return binary.LittleEndian.Uint64(data[p:])
	}
	var w uint64
	for i := len(data) - 1; i >= p; i-- {
		w = w<<8 | uint64(data[i])
	}
	return w
}

// fold returns the xor of the halves of a's and b's 128-bit product, so
// every bit of a reaches every bit of the result.
func fold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// mixWord folds one word into a running name hash.
func mixWord(h, w uint64) uint64 { return fold(h^w, wordMul) }

// scanToken reads data from p a word at a time up to the first byte
// ≤ 0x20 or ≥ 0x80, or the end of data, at q. It returns the hash under
// seed and the first two words, zero-padded, of the token data[p:q], as
// hashToken does.
func scanToken(seed uint64, data []byte, p int) (h, w0, w1 uint64, q int) {
	h, q = seed, p
	for k := 0; ; k++ {
		w := loadWord(data, q)
		n := bits.TrailingZeros64(stopBytes(w)) >> 3 // 8 when no byte stops
		w &= 1<<(8*n) - 1                            // all ones for n == 8
		switch k {
		case 0:
			w0 = w
		case 1:
			w1 = w
		}
		q += n
		if n < 8 {
			return mixWord(h, w|uint64(q-p)<<56), w0, w1, q
		}
		h = mixWord(h, w)
	}
}

// hashToken returns the hash under seed and the first two words,
// zero-padded, of a token, as scanToken computes them while scanning it.
func hashToken(seed uint64, tok []byte) (h, w0, w1 uint64) {
	h, b := seed, tok
	for k := 0; ; k++ {
		var w uint64
		if len(b) >= 8 {
			w = binary.LittleEndian.Uint64(b)
			b = b[8:]
		} else {
			for i := len(b) - 1; i >= 0; i-- {
				w = w<<8 | uint64(b[i])
			}
			b = nil
		}
		switch k {
		case 0:
			w0 = w
		case 1:
			w1 = w
		}
		if b == nil {
			return mixWord(h, w|uint64(len(tok))<<56), w0, w1
		}
		h = mixWord(h, w)
	}
}

// internTable interns names by open addressing with linear probing, at
// most a quarter full. A slot holds the name's first two words and its
// length, so a name of up to 16 bytes is matched by three compares and no
// byte compare; a longer one is compared past its 16th byte only when
// those match. IDs are handed out in first-seen order, as
// Dictionary.Intern does.
type internTable struct {
	seed  uint64       // the names' hash seed
	slots []internSlot // len is a power of two
	mask  uint64       // len(slots) - 1
	names []byte       // every name's bytes, in ID order
	ends  []int        // name id is names[ends[id]:ends[id+1]]
}

// internSlot is one table entry. n == 0 marks an empty slot; no name is
// empty.
type internSlot struct {
	w0, w1 uint64 // the name's first two words, zero-padded
	n      uint32 // the name's length (a line is at most 16 MB), | longName past 16
	id     ItemID
	row    int // the last row the item joined, -1 for none
}

// init makes an empty table of 256 slots that hashes under seed.
func (t *internTable) init(seed uint64) {
	t.seed = seed
	t.slots = make([]internSlot, 256)
	t.mask = 255
	t.ends = []int{0}
}

// len returns the number of names interned.
func (t *internTable) len() int { return len(t.ends) - 1 }

// home returns the home slot of a name of n bytes with hash h and first
// words w0 and w1 if the name is there, the common case, and nil if it is
// elsewhere or not interned: intern then finds or adds it. A name longer
// than 16 bytes never matches at home, its slot's length carrying
// longName.
func (t *internTable) home(h, w0, w1 uint64, n int) *internSlot {
	if s := &t.slots[h&t.mask]; s.n == uint32(n) && s.w0 == w0 && s.w1 == w1 {
		return s
	}
	return nil
}

// longName marks the stored length of a name longer than 16 bytes, whose
// bytes past the 16th must be compared too.
const longName = 1 << 31

// intern returns the slot of tok, whose hash and first words are h, w0
// and w1, adding tok as a new name with the next ID and no row if it was
// not seen before. The slot is valid until the next call.
func (t *internTable) intern(h, w0, w1 uint64, tok []byte) *internSlot {
	n := uint32(len(tok))
	if n > 16 {
		n |= longName
	}
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.n == n && s.w0 == w0 && s.w1 == w1 &&
			(n&longName == 0 || bytes.Equal(t.names[t.ends[s.id]+16:t.ends[s.id+1]], tok[16:])) {
			return s
		}
		if s.n == 0 {
			if 4*(t.len()+1) > len(t.slots) {
				t.grow()
				return t.intern(h, w0, w1, tok)
			}
			*s = internSlot{w0: w0, w1: w1, n: n, id: ItemID(t.len()), row: -1}
			t.names = append(t.names, tok...)
			t.ends = append(t.ends, len(t.names))
			return s
		}
	}
}

// grow doubles the table, rehashing each name from its bytes.
func (t *internTable) grow() {
	old := t.slots
	t.slots = make([]internSlot, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.n == 0 {
			continue
		}
		h, _, _ := hashToken(t.seed, t.names[t.ends[s.id]:t.ends[s.id+1]])
		i := h & t.mask
		for t.slots[i].n != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
}

// dictionary returns the interned names as a Dictionary, in ID order. The
// names share one string, copied once from the name bytes.
func (t *internTable) dictionary() *Dictionary {
	all := string(t.names)
	d := &Dictionary{byName: make(map[string]ItemID, t.len())}
	if t.len() > 0 {
		d.names = make([]string, t.len())
	}
	for id := range d.names {
		name := all[t.ends[id]:t.ends[id+1]]
		d.names[id] = name
		d.byName[name] = ItemID(id)
	}
	return d
}

// sortBlock is the least number of items one block of sortRows covers.
// A block's items, its bucket scratch and its row marks then fit in a
// core's L2 cache with room to spare.
const sortBlock = 1 << 14

// sortRows sorts every row of a CSR arena, row i being
// arena[starts[i]:starts[i+1]], by a counting sort on ItemID over blocks
// of consecutive rows. Every row holds at least one item. A block's items
// are bucketed by ID, each bucket listing its items' rows in row order;
// walking the buckets in ID order then writes each item back at its row's
// cursor, so every row comes out ascending. Both passes run flat over the
// block's items, the row of an item counted from marks at the rows'
// starts, so no branch depends on a row's length. A block covers at least
// sortBlock items and twice as many items as there are names, so the
// per-block pass over the buckets costs no more than its items; one
// arena-wide sort would miss the cache once the arena outgrows it.
func sortRows(arena []ItemID, starts []int, names int) {
	rowCount := len(starts) - 1
	target := max(sortBlock, 2*names)
	cnt := make([]int32, names+1)
	var rowOf, cur []int32
	var marks []uint8
	for lo := 0; lo < rowCount; {
		hi := lo + 1
		for hi < rowCount && starts[hi]-starts[lo] < target {
			hi++
		}
		base := starts[lo]
		items := arena[base:starts[hi]]
		clear(cnt)
		for _, id := range items {
			cnt[id+1]++
		}
		for id := 1; id <= names; id++ {
			cnt[id] += cnt[id-1]
		}
		// cnt[id] is bucket id's start; the scatter moves it to the end.
		rowOf = growN(&rowOf, len(items))
		cur = growN(&cur, hi-lo)
		marks = growN(&marks, len(items))
		clear(marks)
		for r := lo; r < hi; r++ {
			cur[r-lo] = int32(starts[r] - base)
			marks[starts[r]-base] = 1
		}
		r := int32(-1)
		for j, id := range items {
			r += int32(marks[j])
			rowOf[cnt[id]] = r
			cnt[id]++
		}
		j := int32(0)
		for id, end := range cnt[:names] {
			for ; j < end; j++ {
				r := rowOf[j]
				items[cur[r]] = ItemID(id)
				cur[r]++
			}
		}
		lo = hi
	}
}

// growN resizes *s to n elements, growing the backing as needed, and
// returns the resized slice; its contents are unspecified.
func growN[T any](s *[]T, n int) []T {
	v := slices.Grow((*s)[:0], n)[:n]
	*s = v
	return v
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
