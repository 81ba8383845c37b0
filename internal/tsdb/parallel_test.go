package tsdb

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strconv"
	"strings"
	"testing"
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

func TestReadBytesMatchesSequential(t *testing.T) {
	for _, lines := range []int{0, 1, 7, 500, 5000} {
		data := genText(uint64(lines)+1, lines)
		want, err := readSequential(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("lines=%d: sequential: %v", lines, err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := ReadBytesWorkers(data, workers)
			if err != nil {
				t.Fatalf("lines=%d workers=%d: %v", lines, workers, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("lines=%d workers=%d: invalid DB: %v", lines, workers, err)
			}
			requireSameDB(t, got, want)
		}
	}
}

func TestReadBytesManyChunks(t *testing.T) {
	// Force multi-chunk splits regardless of minChunkBytes by going through
	// splitChunks directly: reassembly must be lossless and newline-aligned.
	data := genText(3, 300)
	for _, n := range []int{2, 3, 7, 50} {
		chunks := splitChunks(data, n)
		var re []byte
		for i, c := range chunks {
			if c.off != len(re) {
				t.Fatalf("n=%d chunk %d: offset %d, want %d", n, i, c.off, len(re))
			}
			if i > 0 && len(chunks[i-1].data) > 0 && chunks[i-1].data[len(chunks[i-1].data)-1] != '\n' {
				t.Fatalf("n=%d chunk %d does not end at a newline", n, i-1)
			}
			re = append(re, c.data...)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("n=%d: chunks do not reassemble the input", n)
		}

		// Parse each chunk and merge; must equal the sequential parse.
		parts := make([]*ingestPartial, len(chunks))
		for i, c := range chunks {
			parts[i] = parseChunk(c.data, c.off)
		}
		got, err := mergePartials(data, parts, 2)
		if err != nil {
			t.Fatalf("n=%d: merge: %v", n, err)
		}
		want, err := readSequential(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		requireSameDB(t, got, want)
	}
}

func TestReadBytesErrorsMatchSequential(t *testing.T) {
	// The parallel parser must report the earliest failing line by the same
	// line number the sequential parser would, even when a later chunk
	// fails "first" in wall time.
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
		for _, workers := range []int{1, 4} {
			_, parErr := ReadBytesWorkers([]byte(in), workers)
			if parErr == nil {
				t.Fatalf("workers=%d: parallel accepted input the sequential parser rejects", workers)
			}
			seqLine := errLine(t, seqErr.Error())
			parLine := errLine(t, parErr.Error())
			if seqLine != parLine {
				t.Errorf("workers=%d: error line %d, sequential says %d (%v vs %v)", workers, parLine, seqLine, parErr, seqErr)
			}
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
	// Read over a seekable reader (parallel path) and over a plain pipe-like
	// reader (sequential path) must agree.
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
