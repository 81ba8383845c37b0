package tsdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mappedTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := ReadBytes(genText(42, 800))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestMappedRoundTripBuffer(t *testing.T) {
	want := mappedTestDB(t)
	var buf bytes.Buffer
	if err := WriteMapped(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMapped(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("mapped view invalid: %v", err)
	}
	requireSameDB(t, got, want)

	// Determinism: writing the same DB twice yields identical bytes.
	var buf2 bytes.Buffer
	if err := WriteMapped(&buf2, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("WriteMapped is not byte-deterministic")
	}
}

func TestMappedRoundTripFile(t *testing.T) {
	want := mappedTestDB(t)
	path := filepath.Join(t.TempDir(), "db.tsdbm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMapped(f, want); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.StoredFingerprint() != want.Fingerprint() {
		t.Errorf("stored fingerprint %016x, want %016x", m.StoredFingerprint(), want.Fingerprint())
	}
	if err := m.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	requireSameDB(t, m.DB(), want)
}

func TestMappedEmptyDB(t *testing.T) {
	for _, db := range []*DB{NewBuilder().Build(), {}} {
		var buf bytes.Buffer
		if err := WriteMapped(&buf, db); err != nil {
			t.Fatal(err)
		}
		got, err := ReadMapped(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 0 || got.Dict.Len() != 0 {
			t.Errorf("empty DB round-tripped to %d transactions, %d items", got.Len(), got.Dict.Len())
		}
	}
}

func TestMappedRejectsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMapped(&buf, mappedTestDB(t)); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// Every strict prefix must be rejected (truncation at any point).
	for _, n := range []int{0, 4, 8, 16, mappedHeaderSize - 1, mappedDataStart - 1, mappedDataStart + 5, len(valid) - 1} {
		if _, err := ReadMapped(valid[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}

	corrupt := func(name string, mutate func(b []byte)) {
		b := bytes.Clone(valid)
		mutate(b)
		if _, err := ReadMapped(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	corrupt("bad magic", func(b []byte) { b[0] = 'X' })
	corrupt("bad version", func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 99) })
	corrupt("big-endian flag", func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 0) })
	corrupt("implausible item count", func(b []byte) { binary.LittleEndian.PutUint64(b[16:], 1<<40) })
	corrupt("section out of bounds", func(b []byte) {
		binary.LittleEndian.PutUint64(b[mappedHeaderSize:], uint64(len(valid)+8))
	})
	corrupt("misaligned section", func(b []byte) {
		off := binary.LittleEndian.Uint64(b[mappedHeaderSize:])
		binary.LittleEndian.PutUint64(b[mappedHeaderSize:], off+4)
	})
	corrupt("section count", func(b []byte) { binary.LittleEndian.PutUint64(b[48:], 7) })
	corrupt("row offsets out of order", func(b []byte) {
		// Section 3's second entry (first row end) jumps past totalItems.
		base := mappedHeaderSize + secRowOffsets*mappedSectionSize
		off := binary.LittleEndian.Uint64(b[base:])
		binary.LittleEndian.PutUint64(b[off+8:], 1<<50)
	})
	corrupt("timestamps out of order", func(b []byte) {
		base := mappedHeaderSize + secTimestamps*mappedSectionSize
		off := binary.LittleEndian.Uint64(b[base:])
		// Make the second timestamp equal the first: duplicates are invalid.
		first := binary.LittleEndian.Uint64(b[off:])
		binary.LittleEndian.PutUint64(b[off+8:], first)
	})
	corrupt("name offsets regress", func(b []byte) {
		base := mappedHeaderSize + secNameOffsets*mappedSectionSize
		off := binary.LittleEndian.Uint64(b[base:])
		binary.LittleEndian.PutUint64(b[off+8:], 1<<50)
	})
}

// canonicalDB returns a database whose dictionary intern order matches
// its own text serialization (the text format stores no dictionary, so a
// text round-trip re-interns in timestamp order; parsing the DB's own
// Write output makes that a fixed point). Cross-format equivalence tests
// start here so text and v2 loads can be representation-identical. About
// a third of its timestamps are negative, which both formats store.
func canonicalDB(t *testing.T) *DB {
	t.Helper()
	var text bytes.Buffer
	if err := Write(&text, mappedTestDB(t)); err != nil {
		t.Fatal(err)
	}
	db, err := ReadBytes(text.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() == 0 || db.Trans[0].TS >= 0 {
		t.Fatal("canonicalDB has no negative timestamps")
	}
	return db
}

func TestReadAnyBytesDispatch(t *testing.T) {
	want := canonicalDB(t)
	var text, v2 bytes.Buffer
	if err := Write(&text, want); err != nil {
		t.Fatal(err)
	}
	if err := WriteMapped(&v2, want); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"text": text.Bytes(), "v2": v2.Bytes()} {
		got, err := ReadAnyBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireSameDB(t, got, want)

		// ReadAny over a stream (no Seek, no Bytes) must agree too.
		gotStream, err := ReadAny(onlyReader{bytes.NewReader(data)})
		if err != nil {
			t.Fatalf("%s stream: %v", name, err)
		}
		requireSameDB(t, gotStream, want)
	}
}

func TestOpenFileFormats(t *testing.T) {
	want := canonicalDB(t)
	dir := t.TempDir()
	write := func(name string, fn func(f *os.File) error) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	textPath := write("db.tdb", func(f *os.File) error { return Write(f, want) })
	v2Path := write("db.tsdbm", func(f *os.File) error { return WriteMapped(f, want) })

	for path, wantMapped := range map[string]bool{textPath: false, v2Path: true} {
		fh, err := OpenFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if fh.Mapped() != wantMapped {
			t.Errorf("%s: Mapped() = %v, want %v", path, fh.Mapped(), wantMapped)
		}
		requireSameDB(t, fh.DB(), want)
		if err := fh.Close(); err != nil {
			t.Errorf("%s: Close: %v", path, err)
		}
	}

	// ReadFile agrees with OpenFile on every format.
	for _, path := range []string{textPath, v2Path} {
		db, err := ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", path, err)
		}
		requireSameDB(t, db, want)
	}
}

func TestFingerprintCachedAcrossRoundTrips(t *testing.T) {
	// Satellite: Fingerprint is computed once and cached; the cached value
	// must match a fresh recompute, including after format round-trips.
	db := canonicalDB(t)
	fp := db.Fingerprint()
	if fp != db.fingerprintUncached() {
		t.Fatal("cached fingerprint diverges from recompute")
	}
	if fp != db.Fingerprint() {
		t.Fatal("second Fingerprint call changed the value")
	}

	var v2, text bytes.Buffer
	if err := WriteMapped(&v2, db); err != nil {
		t.Fatal(err)
	}
	if err := Write(&text, db); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func() (*DB, error){
		"v2":   func() (*DB, error) { return ReadMapped(v2.Bytes()) },
		"text": func() (*DB, error) { return ReadBytes(text.Bytes()) },
	} {
		got, err := load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Fingerprint() != fp {
			t.Errorf("%s round-trip changed fingerprint: %016x vs %016x", name, got.Fingerprint(), fp)
		}
		if got.Fingerprint() != got.fingerprintUncached() {
			t.Errorf("%s: cached fingerprint diverges from recompute", name)
		}
	}
}

// v1File is a complete database in the retired v1 binary format: magic,
// version 1, a one-item dictionary {"a"} and one transaction {a} at ts 1.
const v1File = "RPDB\x01\x01\x01a\x01\x01\x01\x00"

// TestReadAnyDetectsFormat pins the one format sniff behind ReadAny,
// ReadAnyBytes, ReadFile and OpenFile: text and v2 each load through
// their own path, and a retired v1 file fails on every entry point with
// ErrV1Format, naming the removed format and the supported ones, instead
// of reaching the text parser.
func TestReadAnyDetectsFormat(t *testing.T) {
	want := canonicalDB(t)
	var text, v2 bytes.Buffer
	if err := Write(&text, want); err != nil {
		t.Fatal(err)
	}
	if err := WriteMapped(&v2, want); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"text": &text, "v2": &v2} {
		got, err := ReadAny(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireSameDB(t, got, want)
	}

	path := filepath.Join(t.TempDir(), "db.rpdb")
	if err := os.WriteFile(path, []byte(v1File), 0o644); err != nil {
		t.Fatal(err)
	}
	loads := map[string]func() error{
		"ReadAny stream": func() error {
			_, err := ReadAny(onlyReader{bytes.NewReader([]byte(v1File))})
			return err
		},
		"ReadAny buffer": func() error { _, err := ReadAny(bytes.NewBufferString(v1File)); return err },
		"ReadAnyBytes":   func() error { _, err := ReadAnyBytes([]byte(v1File)); return err },
		"ReadFile":       func() error { _, err := ReadFile(path); return err },
		"OpenFile":       func() error { _, err := OpenFile(path); return err },
	}
	for name, load := range loads {
		err := load()
		if !errors.Is(err, ErrV1Format) {
			t.Errorf("%s: err = %v, want ErrV1Format", name, err)
			continue
		}
		for _, word := range []string{"v1 binary", "text", "v2 mapped"} {
			if !strings.Contains(err.Error(), word) {
				t.Errorf("%s: error %q does not name %q", name, err, word)
			}
		}
	}
}
