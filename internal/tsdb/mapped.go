package tsdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"
)

// The mapped binary format (tsdbm v2) is a zero-copy, mmap-able TDB
// layout: it lays the database out as flat little-endian arrays so an
// open materializes a read-only *DB view without a decode loop — the item
// arrays of every transaction alias the mapping directly.
//
// Layout (all integers little-endian, every section 8-byte aligned):
//
//	off  size  field
//	0    8     magic "RPTDBM02"
//	8    4     version uint32 (= 2)
//	12   4     flags uint32 (bit0: payload is little-endian; always set)
//	16   8     itemCount uint64
//	24   8     txCount uint64
//	32   8     totalItems uint64 (sum of per-transaction item counts)
//	40   8     fingerprint uint64 (DB.Fingerprint of the content)
//	48   8     sectionCount uint64 (= 5)
//	56   8     reserved (0)
//	64   5×16  section table: (offset uint64, length uint64) per section
//	144  ...   the sections, in table order, each padded to 8 bytes:
//	           0 nameOffsets  (itemCount+1) × uint64, prefix offsets into 1
//	           1 nameBlob     concatenated item names, ID order
//	           2 timestamps   txCount × int64, strictly increasing
//	           3 rowOffsets   (txCount+1) × uint64, CSR offsets into 4
//	           4 items        totalItems × uint32, sorted within each row
//
// The fingerprint field is informative (logged, returned by Stored
// Fingerprint); opens validate structure, not content — Verify or
// DB.Fingerprint make the full pass when the caller wants proof.

const (
	mappedMagic   = "RPTDBM02"
	mappedVersion = 2

	mappedFlagLittleEndian = 1 << 0

	mappedHeaderSize  = 64
	mappedSectionSize = 16
	mappedNumSections = 5
	mappedDataStart   = mappedHeaderSize + mappedNumSections*mappedSectionSize

	secNameOffsets = 0
	secNameBlob    = 1
	secTimestamps  = 2
	secRowOffsets  = 3
	secItems       = 4
)

// hostLittleEndian reports whether the running machine is little-endian;
// only then may the view alias mapped sections instead of decoding them.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

// WriteMapped serializes the database in the mapped (tsdbm v2) format.
// The output is byte-deterministic for a given database.
func WriteMapped(w io.Writer, db *DB) error {
	itemCount := 0
	if db.Dict != nil {
		itemCount = db.Dict.Len()
	}
	totalItems := uint64(0)
	for _, tr := range db.Trans {
		totalItems += uint64(len(tr.Items))
	}
	blobLen := uint64(0)
	for id := 0; id < itemCount; id++ {
		blobLen += uint64(len(db.Dict.Name(ItemID(id))))
	}

	// Section sizes (unpadded) and their table, laid out back to back.
	sizes := [mappedNumSections]uint64{
		secNameOffsets: uint64(itemCount+1) * 8,
		secNameBlob:    blobLen,
		secTimestamps:  uint64(len(db.Trans)) * 8,
		secRowOffsets:  uint64(len(db.Trans)+1) * 8,
		secItems:       totalItems * 4,
	}
	var table [mappedNumSections][2]uint64
	off := uint64(mappedDataStart)
	for i, sz := range sizes {
		table[i] = [2]uint64{off, sz}
		off += pad8(sz)
	}

	bw := bufio.NewWriterSize(w, 1<<20)
	var scratch [8]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, _ = bw.Write(scratch[:])
	}
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, _ = bw.Write(scratch[:4])
	}

	_, _ = bw.WriteString(mappedMagic)
	put32(mappedVersion)
	put32(mappedFlagLittleEndian)
	put64(uint64(itemCount))
	put64(uint64(len(db.Trans)))
	put64(totalItems)
	put64(db.Fingerprint())
	put64(mappedNumSections)
	put64(0) // reserved
	for _, s := range table {
		put64(s[0])
		put64(s[1])
	}

	writePad := func(sz uint64) {
		for p := pad8(sz) - sz; p > 0; p-- {
			_ = bw.WriteByte(0)
		}
	}

	// Section 0+1: name offsets, then the blob.
	cum := uint64(0)
	put64(0)
	for id := 0; id < itemCount; id++ {
		cum += uint64(len(db.Dict.Name(ItemID(id))))
		put64(cum)
	}
	for id := 0; id < itemCount; id++ {
		_, _ = bw.WriteString(db.Dict.Name(ItemID(id)))
	}
	writePad(blobLen)

	// Section 2: timestamps.
	prev := int64(math.MinInt64)
	for _, tr := range db.Trans {
		if tr.TS <= prev && prev != math.MinInt64 {
			return fmt.Errorf("tsdb: transactions out of order at ts %d", tr.TS)
		}
		prev = tr.TS
		put64(uint64(tr.TS))
	}

	// Section 3: CSR row offsets.
	row := uint64(0)
	put64(0)
	for _, tr := range db.Trans {
		row += uint64(len(tr.Items))
		put64(row)
	}

	// Section 4: items.
	for _, tr := range db.Trans {
		for _, id := range tr.Items {
			put32(uint32(id))
		}
	}
	writePad(totalItems * 4)
	return bw.Flush()
}

func pad8(n uint64) uint64 { return (n + 7) &^ 7 }

// Mapped is an open mapped-format database. The *DB view returned by DB()
// aliases the underlying mapping (or, for non-mmap opens, a heap buffer):
// it is read-only and valid until Close.
type Mapped struct {
	db     *DB
	fp     uint64 // fingerprint recorded in the header
	data   []byte
	mapped bool // data came from mmap and must be munmapped
}

// DB returns the database view. Treat it as immutable; it shares memory
// with the mapping and dies with Close.
func (m *Mapped) DB() *DB { return m.db }

// StoredFingerprint returns the fingerprint recorded in the file header
// at write time. It identifies the content cheaply; Verify proves it.
func (m *Mapped) StoredFingerprint() uint64 { return m.fp }

// Verify recomputes the content fingerprint (one full pass over the
// mapping) and checks it against the header's.
func (m *Mapped) Verify() error {
	if got := m.db.Fingerprint(); got != m.fp {
		return fmt.Errorf("tsdb: mapped content fingerprint %016x does not match header %016x", got, m.fp)
	}
	return nil
}

// Close releases the mapping. The *DB view (and every Transaction.Items
// slice taken from it) must not be used afterwards.
func (m *Mapped) Close() error {
	data, mapped := m.data, m.mapped
	m.db, m.data = nil, nil
	if mapped {
		return munmapFile(data)
	}
	return nil
}

// OpenMapped opens a mapped-format file as a read-only database view in
// O(index pages touched): the item dictionary and per-transaction index
// are materialized from the flat sections with no per-item decode loop,
// and the transaction item arrays alias the mapping directly. On
// platforms without mmap (or for unaligned buffers) it transparently
// falls back to reading the file into memory — same view, same API.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, mapped, err := mmapFile(f, st.Size())
	if err != nil {
		// No mmap on this platform (or mapping failed): fall back to a
		// plain read. The view then aliases the heap buffer instead.
		data, err = os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		mapped = false
	}
	m, err := openMappedBytes(data, mapped)
	if err != nil {
		if mapped {
			_ = munmapFile(data)
		}
		return nil, err
	}
	return m, nil
}

// ReadMapped parses a mapped-format database from a fully buffered byte
// slice (ReadAny uses it for v2 inputs arriving over pipes). The returned
// DB aliases data where alignment allows; data must not be modified
// afterwards.
func ReadMapped(data []byte) (*DB, error) {
	m, err := openMappedBytes(data, false)
	if err != nil {
		return nil, err
	}
	return m.db, nil
}

// openMappedBytes validates the header and section table and builds the
// database view over data.
func openMappedBytes(data []byte, mapped bool) (*Mapped, error) {
	if len(data) < mappedDataStart {
		return nil, fmt.Errorf("tsdb: mapped file truncated: %d bytes, want at least %d", len(data), mappedDataStart)
	}
	if string(data[:8]) != mappedMagic {
		return nil, fmt.Errorf("tsdb: not a mapped database (bad magic)")
	}
	version := binary.LittleEndian.Uint32(data[8:12])
	if version != mappedVersion {
		return nil, fmt.Errorf("tsdb: unsupported mapped version %d", version)
	}
	flags := binary.LittleEndian.Uint32(data[12:16])
	if flags&mappedFlagLittleEndian == 0 {
		return nil, fmt.Errorf("tsdb: mapped file payload is not little-endian (flags %#x)", flags)
	}
	itemCount := binary.LittleEndian.Uint64(data[16:24])
	txCount := binary.LittleEndian.Uint64(data[24:32])
	totalItems := binary.LittleEndian.Uint64(data[32:40])
	fp := binary.LittleEndian.Uint64(data[40:48])
	if n := binary.LittleEndian.Uint64(data[48:56]); n != mappedNumSections {
		return nil, fmt.Errorf("tsdb: mapped file has %d sections, want %d", n, mappedNumSections)
	}
	const maxItems = 1 << 28
	if itemCount > maxItems || txCount > 1<<40 || totalItems > 1<<40 {
		return nil, fmt.Errorf("tsdb: implausible mapped header (items %d, transactions %d, total %d)", itemCount, txCount, totalItems)
	}

	// Section table: every section must be 8-aligned, inside the file and
	// exactly the size the header's counts dictate.
	want := [mappedNumSections]uint64{
		secNameOffsets: (itemCount + 1) * 8,
		secNameBlob:    0, // checked against nameOffsets below
		secTimestamps:  txCount * 8,
		secRowOffsets:  (txCount + 1) * 8,
		secItems:       totalItems * 4,
	}
	var secs [mappedNumSections][]byte
	fileEnd := uint64(mappedDataStart)
	for i := 0; i < mappedNumSections; i++ {
		base := mappedHeaderSize + i*mappedSectionSize
		off := binary.LittleEndian.Uint64(data[base : base+8])
		length := binary.LittleEndian.Uint64(data[base+8 : base+16])
		if off%8 != 0 || off < mappedDataStart || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("tsdb: mapped section %d out of bounds (offset %d, length %d, file %d)", i, off, length, len(data))
		}
		if i != secNameBlob && length != want[i] {
			return nil, fmt.Errorf("tsdb: mapped section %d has length %d, want %d", i, length, want[i])
		}
		secs[i] = data[off : off+length]
		if end := off + pad8(length); end > fileEnd {
			fileEnd = end
		}
	}
	// The file is exactly its sections: truncation (even of padding) and
	// trailing garbage both fail loudly rather than silently shifting data.
	if uint64(len(data)) != fileEnd {
		return nil, fmt.Errorf("tsdb: mapped file is %d bytes, sections end at %d", len(data), fileEnd)
	}

	// Dictionary: prefix offsets into the name blob. Names are copied out
	// (the dictionary is small next to the transactions) so the lookup map
	// never references the mapping.
	nameOffs := aliasOrDecodeUint64(secs[secNameOffsets])
	blob := secs[secNameBlob]
	dict := &Dictionary{
		byName: make(map[string]ItemID, itemCount),
		names:  make([]string, itemCount),
	}
	prevOff := uint64(0)
	if nameOffs[0] != 0 {
		return nil, fmt.Errorf("tsdb: mapped name offsets do not start at 0")
	}
	for id := uint64(0); id < itemCount; id++ {
		end := nameOffs[id+1]
		if end < prevOff || end > uint64(len(blob)) {
			return nil, fmt.Errorf("tsdb: mapped name offsets corrupt at item %d", id)
		}
		name := string(blob[prevOff:end])
		dict.names[id] = name
		if _, dup := dict.byName[name]; dup {
			return nil, fmt.Errorf("tsdb: duplicate item name %q in mapped dictionary", name)
		}
		dict.byName[name] = ItemID(id)
		prevOff = end
	}
	if prevOff != uint64(len(blob)) {
		return nil, fmt.Errorf("tsdb: mapped name blob has %d trailing bytes", uint64(len(blob))-prevOff)
	}

	ts := aliasOrDecodeInt64(secs[secTimestamps])
	rows := aliasOrDecodeUint64(secs[secRowOffsets])
	items := aliasOrDecodeUint32(secs[secItems])

	// Materialize the transaction index: a pointer-arithmetic fill, not a
	// decode — the item arrays alias the items section as-is.
	trans := make([]Transaction, txCount)
	if rows[0] != 0 {
		return nil, fmt.Errorf("tsdb: mapped row offsets do not start at 0")
	}
	prevTS := int64(math.MinInt64)
	for i := uint64(0); i < txCount; i++ {
		start, end := rows[i], rows[i+1]
		if end < start || end > totalItems {
			return nil, fmt.Errorf("tsdb: mapped row offsets corrupt at transaction %d", i)
		}
		if start == end {
			return nil, fmt.Errorf("tsdb: mapped transaction %d is empty", i)
		}
		t := ts[i]
		if i > 0 && t <= prevTS {
			return nil, fmt.Errorf("tsdb: mapped transactions out of order at index %d (ts %d after %d)", i, t, prevTS)
		}
		prevTS = t
		row := items[start:end]
		// Item sweep: IDs in dictionary range, strictly increasing within
		// the row — the invariants mining indexes by. A read-only pass at
		// memory bandwidth, not a decode (no varints, no allocation).
		for j, id := range row {
			if uint64(id) >= itemCount {
				return nil, fmt.Errorf("tsdb: mapped transaction %d references unknown item %d", i, id)
			}
			if j > 0 && row[j-1] >= id {
				return nil, fmt.Errorf("tsdb: mapped transaction %d has unsorted or duplicate items", i)
			}
		}
		trans[i] = Transaction{TS: t, Items: row}
	}
	if txCount > 0 && rows[txCount] != totalItems {
		return nil, fmt.Errorf("tsdb: mapped row offsets end at %d, want %d", rows[txCount], totalItems)
	}

	return &Mapped{
		db:     &DB{Dict: dict, Trans: trans},
		fp:     fp,
		data:   data,
		mapped: mapped,
	}, nil
}

// canAlias reports whether a section slice may be reinterpreted in place:
// little-endian host and suitably aligned backing memory (mmap regions
// are page-aligned and sections 8-aligned; heap buffers are checked).
func canAlias(b []byte, align uintptr) bool {
	if !hostLittleEndian || len(b) == 0 {
		return false
	}
	return uintptr(unsafe.Pointer(&b[0]))%align == 0
}

// aliasOrDecodeUint64 views b as []uint64, aliasing when possible and
// decoding into a fresh slice otherwise.
func aliasOrDecodeUint64(b []byte) []uint64 {
	n := len(b) / 8
	if canAlias(b, 8) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func aliasOrDecodeInt64(b []byte) []int64 {
	n := len(b) / 8
	if canAlias(b, 8) {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func aliasOrDecodeUint32(b []byte) []ItemID {
	n := len(b) / 4
	if canAlias(b, 4) {
		return unsafe.Slice((*ItemID)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]ItemID, n)
	for i := range out {
		out[i] = ItemID(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}
