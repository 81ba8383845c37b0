package tsdb

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// genText produces a deterministic, deliberately messy TDB text input:
// comments, blank lines, space and tab separators, duplicate timestamps
// out of order, repeated items within a line, and the occasional unicode
// whitespace — everything the parser language allows.
func genText(seed uint64, lines int) []byte {
	rng := rand.New(rand.NewPCG(seed, 99))
	var sb strings.Builder
	sb.WriteString("# generated test database\n\n")
	for i := 0; i < lines; i++ {
		ts := rng.Int64N(int64(lines)) - int64(lines)/3
		sb.WriteString(strconv.FormatInt(ts, 10))
		if rng.IntN(4) == 0 {
			sb.WriteByte(' ')
		} else {
			sb.WriteByte('\t')
		}
		n := 1 + rng.IntN(6)
		for j := 0; j < n; j++ {
			if j > 0 {
				if rng.IntN(8) == 0 {
					sb.WriteString(" ") // unicode space between items
				} else {
					sb.WriteByte(' ')
				}
			}
			fmt.Fprintf(&sb, "item-%d", rng.IntN(200))
		}
		if rng.IntN(10) == 0 {
			sb.WriteString("  ") // trailing whitespace
		}
		sb.WriteByte('\n')
		if rng.IntN(16) == 0 {
			sb.WriteString("# interleaved comment\n")
		}
		if rng.IntN(16) == 0 {
			sb.WriteByte('\n')
		}
	}
	return []byte(sb.String())
}

// requireSameDB asserts two databases are identical representations:
// same dictionary in the same intern order, same transactions.
func requireSameDB(t *testing.T, got, want *DB) {
	t.Helper()
	if !reflect.DeepEqual(got.Dict.Names(), want.Dict.Names()) {
		t.Fatalf("dictionary order differs:\n got %v\nwant %v", got.Dict.Names(), want.Dict.Names())
	}
	if got.Len() != want.Len() {
		t.Fatalf("transaction count differs: %d vs %d", got.Len(), want.Len())
	}
	for i := range want.Trans {
		if got.Trans[i].TS != want.Trans[i].TS || !reflect.DeepEqual(got.Trans[i].Items, want.Trans[i].Items) {
			t.Fatalf("transaction %d differs: %+v vs %+v", i, got.Trans[i], want.Trans[i])
		}
	}
	if g, w := got.fingerprintUncached(), want.fingerprintUncached(); g != w {
		t.Fatalf("fingerprints differ: %016x vs %016x", g, w)
	}
}

// sortLines stably sorts data's transaction lines by timestamp, leaving
// comments and blank lines where they were, so lines sharing a timestamp
// become adjacent and extend one row.
func sortLines(data []byte) []byte {
	lines := strings.SplitAfter(string(data), "\n")
	var slots []int
	for i, l := range lines {
		if tl := strings.TrimSpace(l); tl != "" && tl[0] != '#' {
			slots = append(slots, i)
		}
	}
	tsOf := func(l string) int64 {
		ts, _ := strconv.ParseInt(strings.Fields(l)[0], 10, 64)
		return ts
	}
	txLines := make([]string, len(slots))
	for i, at := range slots {
		txLines[i] = lines[at]
	}
	slices.SortStableFunc(txLines, func(a, b string) int { return cmp.Compare(tsOf(a), tsOf(b)) })
	for i, at := range slots {
		lines[at] = txLines[i]
	}
	return []byte(strings.Join(lines, ""))
}

// turnsOutOfOrder is a sorted prefix that turns out of order mid-file: it
// revisits an earlier row (the first out-of-order line), revisits the last
// row, opens a new earlier timestamp and revisits it, then goes back to an
// earlier row before unsorted lines follow.
func turnsOutOfOrder(t *testing.T, lines int) []byte {
	t.Helper()
	prefix := sortLines(genText(uint64(lines)+7, lines))
	db, err := readSequential(bytes.NewReader(prefix))
	if err != nil {
		t.Fatal(err)
	}
	first, last := db.Span()
	earlier := -int64(lines) - 10 // below every timestamp genText writes
	turn := fmt.Sprintf("%d\tturn-a item-1\n%d\tturn-b\n%d turn-c item-2\n%d\tturn-d\n%d\tturn-e item-3\n",
		first, last, earlier, earlier, last)
	return append(append(prefix, turn...), genText(uint64(lines)+8, lines)...)
}

func TestReadBytesMatchesSequential(t *testing.T) {
	type input struct {
		name string
		data []byte
	}
	var inputs []input
	for _, lines := range []int{0, 1, 7, 500, 5000} {
		data := genText(uint64(lines)+1, lines)
		inputs = append(inputs,
			input{fmt.Sprintf("lines=%d", lines), data},
			input{fmt.Sprintf("sorted lines=%d", lines), sortLines(data)})
	}
	for _, lines := range []int{1, 40, 500} {
		inputs = append(inputs, input{fmt.Sprintf("turns out of order lines=%d", lines), turnsOutOfOrder(t, lines)})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			want, err := readSequential(bytes.NewReader(in.data))
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			got, err := ReadBytes(in.data)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("invalid DB: %v", err)
			}
			requireSameDB(t, got, want)
		})
	}
}

func TestReadBytesRetainsWhatItKeeps(t *testing.T) {
	// Lines that add no row or no new item (blanks, comments, a repeated
	// timestamp, a repeated item, timestamps that join out of order) must
	// neither reserve memory sized by their count nor leave the DB holding
	// memory sized by the input. perByte bounds what one parse allocates
	// per input byte; an uncapped arena reservation alone costs 4.
	const n = 1 << 18
	inputs := map[string]struct {
		text    string
		perByte int
	}{
		"blank lines":         {strings.Repeat("\n", 4*n) + "1\ta\n", 4},
		"comment lines":       {strings.Repeat("# c\n", n) + "1\ta\n", 4},
		"repeated timestamp":  {strings.Repeat("1\ta\n", n), 3},
		"repeated item":       {"1\t" + strings.Repeat("a ", 2*n) + "\n", 3},
		"spaces":              {"1\ta" + strings.Repeat(" ", 4*n) + "b\n", 3},
		"joined out of order": {strings.Repeat("2\ta\n1\tb\n", n/2), 6},
	}
	for name, in := range inputs {
		t.Run(name, func(t *testing.T) {
			data := []byte(in.text)
			before := heapInUse()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			allocBefore := ms.TotalAlloc
			db, err := ReadBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			if alloc, limit := ms.TotalAlloc-allocBefore, uint64(in.perByte*len(data)); alloc > limit {
				t.Errorf("parse allocated %d bytes, want at most %d (input %d bytes)", alloc, limit, len(data))
			}
			retained := heapInUse() - before
			runtime.KeepAlive(data)
			if cap(db.Trans) > 2*len(db.Trans)+8 {
				t.Errorf("cap(Trans) = %d for %d rows", cap(db.Trans), len(db.Trans))
			}
			if limit := int64(len(data) / 16); retained > limit {
				t.Errorf("DB of %d rows retains %d bytes of heap, want at most %d (input %d bytes)",
					len(db.Trans), retained, limit, len(data))
			}
			runtime.KeepAlive(db)
		})
	}
}

// heapInUse is the live heap after a full collection.
func heapInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func TestReadBytesErrorsMatchSequential(t *testing.T) {
	// ReadBytes must reject exactly where the sequential parser does and
	// report the same line number.
	good := string(genText(9, 200))
	cases := []string{
		"notanumber\ta b\n",
		"5\n",
		"5\t \n",
		good + "bogus line\n",
		good[:len(good)/2] + "12x\tq\n" + good[len(good)/2:],
		"99999999999999999999999999\tx\n" + good,
	}
	for _, in := range cases {
		_, seqErr := readSequential(strings.NewReader(in))
		if seqErr == nil {
			t.Fatalf("case should fail sequentially: %q...", in[:40])
		}
		_, err := ReadBytes([]byte(in))
		if err == nil {
			t.Fatal("ReadBytes accepted input the sequential parser rejects")
		}
		if got, want := errLine(t, err.Error()), errLine(t, seqErr.Error()); got != want {
			t.Errorf("error line %d, sequential says %d (%v vs %v)", got, want, err, seqErr)
		}
	}
}

// errLine extracts N from an error of the form "tsdb: line N: ...".
func errLine(t *testing.T, msg string) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscanf(msg, "tsdb: line %d:", &n); err != nil {
		t.Fatalf("error %q does not carry a line number", msg)
	}
	return n
}

func TestReadDispatchesSeekableInputs(t *testing.T) {
	// Read over a seekable reader (ReadBytes) and over a plain pipe-like
	// reader (the streaming parser) must agree.
	data := genText(11, 400)
	viaSeek, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	viaStream, err := Read(onlyReader{bytes.NewReader(data)})
	if err != nil {
		t.Fatal(err)
	}
	requireSameDB(t, viaSeek, viaStream)
}

// onlyReader hides every interface except io.Reader, modeling a pipe.
type onlyReader struct{ r *bytes.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

func TestParseTimestampMatchesStrconv(t *testing.T) {
	cases := []string{
		"0", "1", "-1", "+5", "007", "123456789",
		"9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "-9223372036854775809", // overflow by one
		"18446744073709551615", "18446744073709551616",
		"99999999999999999999999999", "-99999999999999999999999999",
		"", "-", "+", "x", "1x", "0x10", "1_0", " 1", "1 ",
	}
	for _, c := range cases {
		want, wantErr := strconv.ParseInt(c, 10, 64)
		got, gotErr := parseTimestamp([]byte(c))
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("parseTimestamp(%q) err=%v, strconv err=%v", c, gotErr, wantErr)
			continue
		}
		if gotErr == nil && got != want {
			t.Errorf("parseTimestamp(%q) = %d, want %d", c, got, want)
		}
	}
}

func TestNextFieldMatchesStringsFields(t *testing.T) {
	cases := []string{
		"", " ", "a", " a ", "a b  c", "\tx\vy\fz\r",
		"a b", " wide ", "mixed  \tseps",
	}
	for _, c := range cases {
		want := strings.Fields(c)
		var got []string
		rest := []byte(c)
		for {
			tok := nextField(&rest)
			if tok == nil {
				break
			}
			got = append(got, string(tok))
		}
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Errorf("nextField(%q) = %q, want %q", c, got, want)
		}
	}
}

// internNames are names of 1–40 bytes meant to stress the intern table:
// families sharing their first 8 and 16 bytes (one or two identical
// table words), non-ASCII names, and names holding control bytes that
// are not whitespace.
func internNames() []string {
	var names []string
	for n := 1; n <= 40; n++ {
		for _, prefix := range []string{"", "abcdefgh", "abcdefghijklmnop"} {
			if len(prefix) >= n {
				continue
			}
			for k := 0; k < 60; k++ {
				tail := fmt.Sprintf("%0*d", n-len(prefix), k)
				names = append(names, prefix+tail[len(tail)-(n-len(prefix)):])
			}
		}
	}
	names = append(names, "é", "café", "naïve-name", "名前", "abécdefghijklmnopq", "\x01", "a\x01b",
		"\x1fcontrol", "nul\x00byte", "abcdefgh\x7f", "abcdefghijklmnop\x02")
	slices.Sort(names)
	return slices.Compact(names)
}

func TestInternTableMatchesMap(t *testing.T) {
	names := internNames()
	rng := rand.New(rand.NewPCG(5, 8))
	var tab internTable
	tab.init(newSeed())
	want := make(map[string]ItemID)
	slots := len(tab.slots)
	for i := 0; i < 20*len(names); i++ {
		name := names[rng.IntN(len(names))]
		if i < len(names) && i%3 == 0 {
			name = names[i] // every name appears, some early
		}
		id, ok := want[name]
		if !ok {
			id = ItemID(len(want))
			want[name] = id
		}
		tok := []byte(name)
		h, w0, w1 := hashToken(tab.seed, tok)
		s := tab.home(h, w0, w1, len(tok))
		if s == nil {
			s = tab.intern(h, w0, w1, tok)
		}
		if s.id != id {
			t.Fatalf("token %d %q: ID %d, map says %d", i, name, s.id, id)
		}
	}
	if tab.len() != len(want) {
		t.Fatalf("table holds %d names, map %d", tab.len(), len(want))
	}
	if len(tab.slots) <= slots {
		t.Fatalf("table never grew past %d slots", slots)
	}
	d := tab.dictionary()
	for name, id := range want {
		if got := d.Name(id); got != name {
			t.Fatalf("dictionary names %q as %d, map says %q", got, id, name)
		}
		if got, ok := d.Lookup(name); !ok || got != id {
			t.Fatalf("dictionary looks %q up as %d (%v), map says %d", name, got, ok, id)
		}
	}

	// scanToken, reading the input a word at a time, must agree with
	// hashToken on every name the word path takes, wherever it ends: at a
	// space, at a newline, and at the end of the input.
	for _, name := range names {
		if strings.IndexFunc(name, func(r rune) bool { return r <= ' ' || r >= utf8.RuneSelf }) >= 0 {
			continue
		}
		h, w0, w1 := hashToken(tab.seed, []byte(name))
		for _, text := range []string{"x " + name + " y", "x " + name + "\n", "x " + name} {
			gh, gw0, gw1, q := scanToken(tab.seed, []byte(text), 2)
			if q != 2+len(name) || gh != h || gw0 != w0 || gw1 != w1 {
				t.Fatalf("scanToken(%q) = %x %x %x end %d, hashToken gives %x %x %x end %d",
					text, gh, gw0, gw1, q, h, w0, w1, 2+len(name))
			}
		}
	}

	// Through ReadBytes, every name interns as the streaming parser does.
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "%d\t%s %s %s\n", i/3, names[rng.IntN(len(names))], names[rng.IntN(len(names))], names[rng.IntN(len(names))])
	}
	text := []byte(sb.String())
	seq, err := readSequential(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadBytes(text)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDB(t, got, seq)
}

// maxProbe returns the longest distance of a name from its home slot.
func maxProbe(tab *internTable) int {
	longest := 0
	for i, s := range tab.slots {
		if s.n == 0 {
			continue
		}
		h, _, _ := hashToken(tab.seed, tab.names[tab.ends[s.id]:tab.ends[s.id+1]])
		longest = max(longest, int((uint64(i)-h)&tab.mask))
	}
	return longest
}

func TestInternTableResistsCollisions(t *testing.T) {
	const count = 4096
	rng := rand.New(rand.NewPCG(9, 2))
	le := binary.LittleEndian

	// Names that collide under seed 0: the second word cancels the
	// first's mix, so every name enters its last mix in the same state.
	const target = 0x5eed
	atZero := make([][]byte, count)
	for i := range atZero {
		w0 := rng.Uint64()
		atZero[i] = le.AppendUint64(le.AppendUint64(nil, w0), mixWord(0, w0)^target)
	}
	// Names that would collide under every seed were a word mixed in by
	// xor and a multiply alone: each pair of words either keeps or flips
	// the top bit of both, and the multiply carries the first flip into
	// the top bit where the second cancels it.
	flips := make([][]byte, count)
	base := make([]uint64, 24)
	for i := range base {
		base[i] = rng.Uint64()
	}
	for i := range flips {
		var name []byte
		for j, w := range base {
			if i>>(j/2)&1 == 1 {
				w ^= 1 << 63
			}
			name = le.AppendUint64(name, w)
		}
		flips[i] = name
	}
	xorMul := func(seed uint64, name []byte) uint64 {
		h := seed
		for ; len(name) > 0; name = name[8:] {
			h = (h ^ le.Uint64(name)) * wordMul
		}
		return h
	}
	seed := rng.Uint64()
	for _, name := range flips {
		if xorMul(seed, name) != xorMul(seed, flips[0]) {
			t.Fatal("the flip family does not collide under xor-multiply")
		}
	}

	fill := func(seed uint64, names [][]byte) *internTable {
		tab := new(internTable)
		tab.init(seed)
		for i, name := range names {
			h, w0, w1 := hashToken(seed, name)
			if s := tab.intern(h, w0, w1, name); s.id != ItemID(i) {
				t.Fatalf("name %d interned as %d", i, s.id)
			}
		}
		return tab
	}
	if p := maxProbe(fill(0, atZero)); p < count/2 {
		t.Fatalf("names built to collide at seed 0 probe at most %d slots", p)
	}
	if newSeed() == newSeed() {
		t.Fatal("two seeds are equal")
	}
	for _, names := range [][][]byte{atZero, flips} {
		if p := maxProbe(fill(newSeed(), names)); p > 64 {
			t.Errorf("a name sits %d slots past its home under a fresh seed", p)
		}
	}
}

func TestReadBytesStopsAtInputEnd(t *testing.T) {
	// A parse of a prefix must not see the bytes past it, though a word
	// load near the end could reach them through the slice's capacity.
	full := []byte("1\ta bcdefghij\n2\tklmnopqrstuvwxyz")
	for k := len("1\ta b"); k <= len(full); k++ {
		want, wantErr := ReadBytes(bytes.Clone(full[:k]))
		got, err := ReadBytes(full[:k])
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("prefix %q: error %v, on a copy %v", full[:k], err, wantErr)
		}
		if err != nil {
			continue
		}
		requireSameDB(t, got, want)
		last := got.Dict.Names()[got.Dict.Len()-1]
		if !strings.HasSuffix(strings.TrimSpace(string(full[:k])), last) {
			t.Fatalf("prefix %q: last name %q", full[:k], last)
		}
	}
}
