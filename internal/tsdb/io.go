package tsdb

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The on-disk transaction format is one transaction per line:
//
//	<timestamp>\t<item> <item> ...
//
// Timestamps are base-10 integers. Items are whitespace-free tokens
// separated by single spaces. Lines starting with '#' and blank lines are
// ignored on read. This mirrors the layout of the classic FIMI / Quest
// transaction files with an added timestamp column.

// Write serializes the database in the text transaction format.
func Write(w io.Writer, db *DB) error {
	bw := bufio.NewWriter(w)
	for _, tr := range db.Trans {
		if _, err := bw.WriteString(strconv.FormatInt(tr.TS, 10)); err != nil {
			return err
		}
		if err := bw.WriteByte('\t'); err != nil {
			return err
		}
		for i, id := range tr.Items {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(db.Dict.Name(id)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a database from the text transaction format. Transactions may
// appear in any order and duplicate timestamps are merged; the result is
// temporally ordered.
//
// When the input is already in memory (*bytes.Buffer) or seekable (a file,
// *bytes.Reader, *strings.Reader), Read reads it to EOF and parses the
// bytes in one pass (ReadBytes); true streams go through the line
// scanner. Both paths accept the same language and produce identical
// databases.
func Read(r io.Reader) (*DB, error) {
	if data, ok, err := slurp(r); ok {
		if err != nil {
			return nil, err
		}
		return ReadBytes(data)
	}
	return readSequential(r)
}

// slurp reads buffered and seekable inputs to EOF. A *bytes.Buffer is
// drained like any other reader, into one exact-size copy the caller's
// buffer no longer owns. ok=false means the caller should stream instead.
func slurp(r io.Reader) (data []byte, ok bool, err error) {
	switch v := r.(type) {
	case *bytes.Buffer:
		data := bytes.Clone(v.Bytes())
		v.Reset()
		return data, true, nil
	case io.ReadSeeker:
		data, err := io.ReadAll(v)
		return data, true, err
	}
	return nil, false, nil
}

// readSequential is the streaming text parser: one bufio.Scanner pass,
// used for pipes and other non-seekable inputs (and by tests as the
// reference implementation ReadBytes must match).
func readSequential(r io.Reader) (*DB, error) {
	b := NewBuilder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		tsStr, rest, ok := strings.Cut(line, "\t")
		if !ok {
			// Accept a space separator after the timestamp as well.
			tsStr, rest, ok = strings.Cut(line, " ")
			if !ok {
				return nil, fmt.Errorf("tsdb: line %d: missing item list", lineNo)
			}
		}
		ts, err := strconv.ParseInt(strings.TrimSpace(tsStr), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tsdb: line %d: bad timestamp %q: %v", lineNo, tsStr, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("tsdb: line %d: empty transaction", lineNo)
		}
		for _, f := range fields {
			b.Add(f, ts)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}
