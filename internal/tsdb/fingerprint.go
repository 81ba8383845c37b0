package tsdb

import (
	"encoding/binary"
	"hash/fnv"
)

// Fingerprint returns a stable 64-bit FNV-1a digest of the database
// content: the dictionary's item names in ID order, then every
// transaction's timestamp and item IDs. The digest is deterministic
// across processes and runs, so it can key result caches and appear in
// logs; databases with different fingerprints are guaranteed different,
// equal fingerprints mean identical content up to hash collision.
//
// The digest covers the concrete representation (ItemIDs follow intern
// order), so two logically equal databases built in different event
// orders may fingerprint differently — fine for caching, where a miss
// only costs a recomputation.
//
// The digest is computed once and cached (hashing is O(database) and the
// serve layer asks per request); the database must not be mutated after
// the first call.
func (db *DB) Fingerprint() uint64 {
	db.fpOnce.Do(func() { db.fpVal = db.fingerprintUncached() })
	return db.fpVal
}

// fingerprintUncached computes the digest from the content, ignoring and
// not touching the cache; tests call it to prove the cached value stays
// truthful across round-trips.
func (db *DB) fingerprintUncached() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		_, _ = h.Write(buf[:])
	}
	n := 0
	if db.Dict != nil {
		n = db.Dict.Len()
	}
	writeInt(int64(n))
	for id := 0; id < n; id++ {
		name := db.Dict.Name(ItemID(id))
		writeInt(int64(len(name)))
		_, _ = h.Write([]byte(name))
	}
	writeInt(int64(len(db.Trans)))
	for _, tr := range db.Trans {
		writeInt(tr.TS)
		writeInt(int64(len(tr.Items)))
		for _, id := range tr.Items {
			writeInt(int64(id))
		}
	}
	return h.Sum64()
}
