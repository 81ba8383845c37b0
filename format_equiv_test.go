package rp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCrossFormatMiningEquivalence is the end-to-end guarantee behind
// "upload once, mine many": a database loaded from the text format or the
// v2 mapped layout (buffered and memory-mapped alike) has the same
// fingerprint and produces byte-for-byte identical mining output. The mapped view mines directly over the file-backed sections, so
// this also proves the no-decode load path feeds the miner correctly.
func TestCrossFormatMiningEquivalence(t *testing.T) {
	// Canonicalize first: the text format stores no dictionary, so a text
	// round-trip re-interns items in timestamp order. Parsing the DB's own
	// text serialization is a fixed point, making every format's load
	// representation-identical, fingerprint included.
	var canon bytes.Buffer
	if err := WriteDB(&canon, FromEvents(paperEvents())); err != nil {
		t.Fatal(err)
	}
	base, err := ReadDB(bytes.NewReader(canon.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Per: 2, MinPS: 3, MinRec: 2}
	wantPatterns, err := Mine(base, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantPatterns) == 0 {
		t.Fatal("paper example mined no patterns; test setup broken")
	}
	wantFP := base.Fingerprint()

	var text, v2 bytes.Buffer
	if err := WriteDB(&text, base); err != nil {
		t.Fatal(err)
	}
	if err := WriteDBMapped(&v2, base); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	paths := map[string][]byte{"db.tdb": text.Bytes(), "db.tsdbm": v2.Bytes()}
	for name, data := range paths {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	loads := map[string]func() (*DB, func(), error){
		"text/reader": func() (*DB, func(), error) {
			db, err := ReadDB(bytes.NewReader(text.Bytes()))
			return db, func() {}, err
		},
		"v2/reader": func() (*DB, func(), error) {
			db, err := ReadDB(bytes.NewReader(v2.Bytes()))
			return db, func() {}, err
		},
		"text/file": func() (*DB, func(), error) {
			db, err := ReadDBFile(filepath.Join(dir, "db.tdb"))
			return db, func() {}, err
		},
		"v2/mmap": func() (*DB, func(), error) {
			fh, err := OpenDBFile(filepath.Join(dir, "db.tsdbm"))
			if err != nil {
				return nil, nil, err
			}
			return fh.DB(), func() {
				if err := fh.Close(); err != nil {
					t.Errorf("closing mapped file: %v", err)
				}
			}, nil
		},
	}
	for name, load := range loads {
		t.Run(name, func(t *testing.T) {
			db, done, err := load()
			if err != nil {
				t.Fatal(err)
			}
			defer done()
			if fp := db.Fingerprint(); fp != wantFP {
				t.Fatalf("fingerprint %016x, want %016x", fp, wantFP)
			}
			patterns, err := Mine(db, o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(patterns, wantPatterns) {
				t.Errorf("mining output diverged:\n got %s\nwant %s",
					renderPatterns(patterns), renderPatterns(wantPatterns))
			}
		})
	}
}

func renderPatterns(ps []Pattern) string {
	var buf bytes.Buffer
	for _, p := range ps {
		fmt.Fprintf(&buf, "%v sup=%d rec=%d %v; ", p.Items, p.Support, p.Recurrence, p.Intervals)
	}
	return buf.String()
}
