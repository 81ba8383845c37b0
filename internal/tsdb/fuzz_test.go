package tsdb

import (
	"bytes"
	"testing"
)

// The fuzz targets run their seed corpus as part of the normal test suite;
// use `go test -fuzz FuzzReadText ./internal/tsdb` for open-ended fuzzing.

func FuzzReadText(f *testing.F) {
	f.Add([]byte("1\ta b g\n2\ta c d\n"))
	f.Add([]byte("# comment\n\n5 x\n"))
	f.Add([]byte("bogus"))
	f.Add([]byte("9223372036854775807\tx\n"))
	f.Add([]byte("-1\tx y z\n-1\tx\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := db.Validate(); err != nil {
			t.Fatalf("Read accepted input producing invalid DB: %v", err)
		}
		// Whatever parses must round-trip through the text format.
		var buf bytes.Buffer
		if err := Write(&buf, db); err != nil {
			t.Fatalf("Write failed on parsed DB: %v", err)
		}
		db2, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if db2.Len() != db.Len() {
			t.Fatalf("round trip changed length: %d -> %d", db.Len(), db2.Len())
		}
	})
}

func FuzzReadAny(f *testing.F) {
	// The loader behind every -db file and dataset upload: whatever the
	// buffered sniff accepts must be valid, and the streaming ReadAny over
	// the same bytes must agree on accept/reject and on the fingerprint.
	b := NewBuilder()
	b.Add("alpha", 1)
	b.Add("beta", 1)
	b.Add("alpha", 7)
	var valid bytes.Buffer
	if err := WriteMapped(&valid, b.Build()); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("1\ta b g\n-2\ta c d\n"))
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:mappedHeaderSize/2])
	f.Add([]byte(v1File))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := ReadAnyBytes(data)
		streamDB, streamErr := ReadAny(onlyReader{bytes.NewReader(data)})
		if (err == nil) != (streamErr == nil) {
			t.Fatalf("accept/reject mismatch: buffered %v, stream %v", err, streamErr)
		}
		if err != nil {
			return
		}
		if err := db.Validate(); err != nil {
			t.Fatalf("ReadAnyBytes accepted input producing invalid DB: %v", err)
		}
		if a, b := db.fingerprintUncached(), streamDB.fingerprintUncached(); a != b {
			t.Fatalf("fingerprint mismatch: buffered %016x, stream %016x", a, b)
		}
	})
}

func FuzzReadBytes(f *testing.F) {
	// Pinned equivalence: the one-pass buffer parser and the streaming
	// scanner accept exactly the same language and build identical DBs.
	f.Add([]byte("1\ta b g\n2\ta c d\n"))
	f.Add([]byte("# c\n\n5 x\n5\ty z\n-3 w\n"))
	f.Add([]byte("bogus"))
	f.Add([]byte("1\ta b\n")) // unicode whitespace splits items
	f.Add([]byte("9223372036854775807\tx\n9223372036854775808\ty\n"))
	f.Add([]byte("1\ta\n3\tb\n5\tc\n3\td a\n5\te\n2\tf\n2\tg\n5 h\n"))
	f.Add([]byte("1\ta b\n1\tb c\n1 a\n2\tc\n2\td d\n"))
	// Names sharing their first 8 and 16 bytes, the intern table's inline
	// words; non-ASCII names; control bytes that are not whitespace.
	f.Add([]byte("1\tabcdefgh1 abcdefgh2 abcdefgh\n2\tabcdefghijklmnopA abcdefghijklmnopB abcdefghijklmnop abcdefghijklmnopA\n"))
	f.Add([]byte("1\tcafé naïve 名前 café\n2\tabcdefghijklmnoé\n"))
	f.Add([]byte("1\ta\x01b \x1f c\x00 a\x01b\n2\t\x7f\n"))
	// A token that ends exactly at the end of the buffer, short and long.
	f.Add([]byte("1\ta bcdefghij"))
	f.Add([]byte("1\tx\n2\tabcdefgh"))
	// U+00A0 and U+2003 between items.
	f.Add([]byte("1\ta\u00a0b\u2003c\n2\tb\u2003\u00a0a\n"))
	// An item repeated on a line and across lines of one timestamp, in
	// order and out of it.
	f.Add([]byte("1\ta b a\n1\tb a c\n2\tc c\n1\tc a d\n2\tc\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		seqDB, seqErr := readSequential(bytes.NewReader(data))
		db, err := ReadBytes(data)
		if (seqErr == nil) != (err == nil) {
			t.Fatalf("accept/reject mismatch: sequential %v, ReadBytes %v", seqErr, err)
		}
		if seqErr != nil {
			return
		}
		if err := db.Validate(); err != nil {
			t.Fatalf("ReadBytes produced invalid DB: %v", err)
		}
		if s, p := seqDB.fingerprintUncached(), db.fingerprintUncached(); s != p {
			t.Fatalf("fingerprint mismatch: sequential %016x, ReadBytes %016x", s, p)
		}
	})
}

func FuzzMapped(f *testing.F) {
	// Direction 1 (via text seeds): whatever parses must survive a mapped
	// round-trip unchanged. Direction 2 (raw bytes): ReadMapped must reject
	// or produce a valid DB, never panic or accept garbage.
	b := NewBuilder()
	b.Add("alpha", 1)
	b.Add("beta", 1)
	b.Add("alpha", 7)
	var valid bytes.Buffer
	if err := WriteMapped(&valid, b.Build()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:40])
	f.Add([]byte("RPTDBM02"))
	f.Add([]byte("1\ta b\n2\tc\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if db, err := ReadMapped(data); err == nil {
			if verr := db.Validate(); verr != nil {
				t.Fatalf("ReadMapped accepted input producing invalid DB: %v", verr)
			}
		}
		// Treat the input as text; round-trip every parse through mapped.
		db, err := ReadBytes(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMapped(&buf, db); err != nil {
			t.Fatalf("WriteMapped failed on parsed DB: %v", err)
		}
		db2, err := ReadMapped(buf.Bytes())
		if err != nil {
			t.Fatalf("mapped round trip failed: %v", err)
		}
		if err := db2.Validate(); err != nil {
			t.Fatalf("mapped round trip produced invalid DB: %v", err)
		}
		if a, b := db.fingerprintUncached(), db2.fingerprintUncached(); a != b {
			t.Fatalf("mapped round trip changed fingerprint: %016x vs %016x", a, b)
		}
	})
}
