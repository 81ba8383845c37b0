package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/recurpat/rp/internal/tsdb"
)

func TestGenerateToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shop.tdb")
	var out bytes.Buffer
	err := run([]string{"-dataset", "shop14", "-scale", "0.02", "-seed", "5", "-out", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db, err := tsdb.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() == 0 {
		t.Fatal("generated file has no transactions")
	}
	if err := db.Validate(); err != nil {
		t.Errorf("generated DB invalid: %v", err)
	}
}

func TestGenerateToStdout(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-dataset", "twitter", "-scale", "0.01", "-seed", "5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\t") {
		t.Error("no transactions written to stdout")
	}
}

func TestGenerateUnknownDataset(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dataset", "nope"}, &out); err == nil {
		t.Error("unknown dataset must fail")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("bad flag must fail")
	}
}

// TestGenerateMapped writes the same seed as text and as the v2 mapped
// layout: the mapped file must open as a mapping and hold the text
// output's content. The text format stores no dictionary (a load
// re-interns items in timestamp order), so the two loads may number items
// differently and fingerprint differently; the content is compared through
// the text serialization instead, byte for byte.
func TestGenerateMapped(t *testing.T) {
	dir := t.TempDir()
	gen := func(name string, format ...string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		args := append([]string{"-dataset", "shop14", "-scale", "0.02", "-seed", "5", "-out", path}, format...)
		if err := run(args, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	text, err := os.ReadFile(gen("shop.tdb"))
	if err != nil {
		t.Fatal(err)
	}
	fh, err := tsdb.OpenFile(gen("shop.tsdbm", "-format", "mapped"))
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	if !fh.Mapped() {
		t.Error("-format mapped output did not open as a mapping")
	}
	if fh.DB().Len() == 0 {
		t.Fatal("mapped file has no transactions")
	}
	var again bytes.Buffer
	if err := tsdb.Write(&again, fh.DB()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), text) {
		t.Error("mapped output's content differs from the text output of the same seed")
	}

	// The retired v1 binary format is no longer a choice.
	err = run([]string{"-dataset", "shop14", "-scale", "0.02", "-format", "binary", "-out", filepath.Join(dir, "x")}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), `unknown format "binary"`) {
		t.Errorf("-format binary: err = %v, want the unknown-format error", err)
	}
}
