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

func FuzzReadBinary(f *testing.F) {
	// Seed with a valid encoding and mutations of it.
	b := NewBuilder()
	b.Add("alpha", 1)
	b.Add("beta", 1)
	b.Add("alpha", 7)
	var valid bytes.Buffer
	if err := WriteBinary(&valid, b.Build()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("RPDB"))
	f.Add([]byte("RPDB\x01\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := db.Validate(); err != nil {
			t.Fatalf("ReadBinary accepted input producing invalid DB: %v", err)
		}
	})
}

func FuzzReadParallel(f *testing.F) {
	// Pinned equivalence: the chunked parallel parser and the sequential
	// scanner accept exactly the same language and build identical DBs.
	f.Add([]byte("1\ta b g\n2\ta c d\n"), uint8(4))
	f.Add([]byte("# c\n\n5 x\n5\ty z\n-3 w\n"), uint8(2))
	f.Add([]byte("bogus"), uint8(8))
	f.Add([]byte("1\ta b\n"), uint8(3)) // unicode whitespace splits items
	f.Add([]byte("9223372036854775807\tx\n9223372036854775808\ty\n"), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, workers uint8) {
		seqDB, seqErr := readSequential(bytes.NewReader(data))
		parDB, parErr := ReadBytesWorkers(data, 1+int(workers%8))
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("accept/reject mismatch: sequential %v, parallel %v", seqErr, parErr)
		}
		if seqErr != nil {
			return
		}
		if err := parDB.Validate(); err != nil {
			t.Fatalf("parallel parse produced invalid DB: %v", err)
		}
		if s, p := seqDB.fingerprintUncached(), parDB.fingerprintUncached(); s != p {
			t.Fatalf("fingerprint mismatch: sequential %016x, parallel %016x", s, p)
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

func FuzzReadEvents(f *testing.F) {
	f.Add([]byte("1,a\n2,b\n"))
	f.Add([]byte("x,y\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 1; i < len(events); i++ {
			if events[i-1].TS > events[i].TS {
				t.Fatal("ReadEvents returned unsorted events")
			}
		}
		if db := FromEvents(events); db.Validate() != nil {
			t.Fatal("events produced invalid DB")
		}
	})
}
