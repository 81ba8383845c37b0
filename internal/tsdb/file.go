package tsdb

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
)

// The supported on-disk formats are text (the interchange format, see
// Write) and the v2 mapped layout (see WriteMapped); the first bytes of
// a database tell them apart.

// v1Magic opens a file in the retired v1 binary format. It is recognised
// only so such a file fails with ErrV1Format instead of a misleading
// text parse error.
const v1Magic = "RPDB"

// ErrV1Format reports a database in the retired v1 binary format.
var ErrV1Format = errors.New(`tsdb: the v1 binary database format (magic "RPDB") is no longer supported; supported formats are text and v2 mapped`)

// sniff tells a database's format from its first bytes (up to
// len(mappedMagic) of them): true for the v2 mapped layout, false for
// text, and ErrV1Format for the retired v1 binary format. No text
// database can start with either magic, since a text line opens with a
// timestamp, a comment or whitespace.
func sniff(prefix []byte) (mapped bool, err error) {
	if bytes.HasPrefix(prefix, []byte(v1Magic)) {
		return false, ErrV1Format
	}
	return bytes.HasPrefix(prefix, []byte(mappedMagic)), nil
}

// ReadAny reads a database in any supported format, sniffing its first
// bytes. Buffered or seekable inputs are read to EOF and handed to
// ReadAnyBytes; true streams are peeked through a bufio.Reader. Either
// way the input is consumed, and the result never aliases the caller's
// buffer.
func ReadAny(r io.Reader) (*DB, error) {
	if data, ok, err := slurp(r); ok {
		if err != nil {
			return nil, err
		}
		return ReadAnyBytes(data)
	}
	br := bufio.NewReader(r)
	prefix, _ := br.Peek(len(mappedMagic))
	mapped, err := sniff(prefix)
	if err != nil {
		return nil, err
	}
	if !mapped {
		return Read(br)
	}
	data, err := io.ReadAll(br)
	if err != nil {
		return nil, err
	}
	return ReadMapped(data)
}

// ReadAnyBytes is ReadAny over a fully buffered input: format sniff, then
// the zero-copy path for each format (one-pass parse for text, in-place
// view for mapped). The returned DB may alias data; callers must not
// modify it afterwards.
func ReadAnyBytes(data []byte) (*DB, error) {
	mapped, err := sniff(data)
	if err != nil {
		return nil, err
	}
	if mapped {
		return ReadMapped(data)
	}
	return ReadBytes(data)
}

// ReadFile loads a database file of any supported format into memory:
// text goes through the one-pass parser (ReadBytes) and mapped v2 through
// the in-place view over the heap buffer. The result never references the
// file; use OpenFile to keep a mapped file on disk instead.
func ReadFile(path string) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadAnyBytes(data)
}

// File is an open database file. For mapped-format (v2) files the view
// aliases an mmap of the file and Close releases it; for text files the
// database is heap-resident and Close is a no-op kept for symmetry.
type File struct {
	db *DB
	m  *Mapped // non-nil iff the file was opened via mmap
}

// DB returns the database. For a mapped file it is valid until Close.
func (f *File) DB() *DB { return f.db }

// Mapped reports whether the database view aliases a file mapping (and
// therefore dies with Close).
func (f *File) Mapped() bool { return f.m != nil }

// Close releases any file mapping backing the database view.
func (f *File) Close() error {
	if f.m != nil {
		m := f.m
		f.m, f.db = nil, nil
		return m.Close()
	}
	f.db = nil
	return nil
}

// OpenFile opens a database file of any supported format, memory-mapping
// it when it is in the mapped v2 layout and loading it into memory
// otherwise. This is the cheapest way to get at a database that lives for
// the rest of the process — CLIs and server startup loads — while
// ReadFile is the right call when the database must outlive the file.
func OpenFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var prefix [len(mappedMagic)]byte
	n, err := io.ReadFull(f, prefix[:])
	if closeErr := f.Close(); err == nil && closeErr != nil {
		return nil, closeErr
	}
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, err
	}
	mapped, err := sniff(prefix[:n])
	if err != nil {
		return nil, err
	}
	if mapped {
		m, err := OpenMapped(path)
		if err != nil {
			return nil, err
		}
		return &File{db: m.DB(), m: m}, nil
	}
	db, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &File{db: db}, nil
}
