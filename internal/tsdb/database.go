package tsdb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Transaction is one row of a temporally ordered transactional database: the
// set of items observed at a particular timestamp. Items are sorted and
// duplicate-free.
type Transaction struct {
	TS    int64
	Items []ItemID
}

// Contains reports whether the transaction contains every item of pattern.
// Both the transaction items and pattern must be sorted ascending.
func (t Transaction) Contains(pattern []ItemID) bool {
	items := t.Items
	for _, p := range pattern {
		i := sort.Search(len(items), func(k int) bool { return items[k] >= p })
		if i == len(items) || items[i] != p {
			return false
		}
		items = items[i+1:]
	}
	return true
}

// DB is a transactional database constructed from a time series. Transactions
// are strictly ordered by timestamp and each timestamp appears at most once
// (paper Section 3: transactions are uniquely identifiable by timestamp).
//
// A DB must not be copied by value once Fingerprint has been called (the
// cache embeds a sync.Once); share it by pointer, as every constructor in
// this package already does.
type DB struct {
	Dict  *Dictionary
	Trans []Transaction

	// Fingerprint cache: content hashing is O(database) and callers (the
	// serve cache, the journal) ask per request, so the first computation
	// is kept. Mutating Dict or Trans after that first call is a misuse;
	// loaders and builders here never do.
	fpOnce sync.Once
	fpVal  uint64
}

// Builder accumulates events and produces a DB. It implements the
// "linked hash table" construction sketched at the end of Section 3 of the
// paper: items are grouped by their occurrence timestamp.
type Builder struct {
	dict   *Dictionary
	groups map[int64]map[ItemID]struct{}
}

// NewBuilder returns a Builder using a fresh dictionary.
func NewBuilder() *Builder {
	return &Builder{
		dict:   NewDictionary(),
		groups: make(map[int64]map[ItemID]struct{}),
	}
}

// Add records that item occurred at ts. Duplicate (item, ts) pairs collapse
// into a single occurrence, matching the set semantics of transactions.
func (b *Builder) Add(item string, ts int64) {
	id := b.dict.Intern(item)
	g, ok := b.groups[ts]
	if !ok {
		g = make(map[ItemID]struct{})
		b.groups[ts] = g
	}
	g[id] = struct{}{}
}

// AddIDs records that the (already interned) items occurred at ts.
func (b *Builder) AddIDs(ts int64, items ...ItemID) {
	g, ok := b.groups[ts]
	if !ok {
		g = make(map[ItemID]struct{})
		b.groups[ts] = g
	}
	for _, id := range items {
		g[id] = struct{}{}
	}
}

// Dict exposes the builder's dictionary so callers can intern items up front.
func (b *Builder) Dict() *Dictionary { return b.dict }

// Build produces the temporally ordered transactional database. The builder
// may continue to be used afterwards; subsequent Build calls include all
// events added so far.
func (b *Builder) Build() *DB {
	trans := make([]Transaction, 0, len(b.groups))
	for ts, g := range b.groups {
		items := make([]ItemID, 0, len(g))
		for id := range g {
			items = append(items, id)
		}
		slices.Sort(items)
		trans = append(trans, Transaction{TS: ts, Items: items})
	}
	slices.SortFunc(trans, func(a, b Transaction) int { return cmp.Compare(a.TS, b.TS) })
	return &DB{Dict: b.dict, Trans: trans}
}

// FromEvents builds a DB directly from an event sequence.
func FromEvents(events EventSequence) *DB {
	b := NewBuilder()
	for _, e := range events {
		b.Add(e.Item, e.TS)
	}
	return b.Build()
}

// Len reports the number of transactions, |TDB|.
func (db *DB) Len() int { return len(db.Trans) }

// Span returns the smallest and largest transaction timestamps. It returns
// (0, 0) for an empty database.
func (db *DB) Span() (first, last int64) {
	if len(db.Trans) == 0 {
		return 0, 0
	}
	return db.Trans[0].TS, db.Trans[len(db.Trans)-1].TS
}

// Rebase returns a copy of db with all timestamps shifted by delta.
// Useful for aligning datasets collected against different epochs.
func (db *DB) Rebase(delta int64) *DB {
	out := &DB{Dict: db.Dict, Trans: make([]Transaction, len(db.Trans))}
	for i, tr := range db.Trans {
		out.Trans[i] = Transaction{TS: tr.TS + delta, Items: tr.Items}
	}
	return out
}

// TSList returns the ordered set of timestamps at which every item of
// pattern occurs together, i.e. TS^X from paper Definition 2/Example 2.
// The pattern must be sorted ascending. This is the reference (scan-based)
// implementation used by tests and small tools; miners use their own
// incremental representations.
func (db *DB) TSList(pattern []ItemID) []int64 {
	var ts []int64
	for _, tr := range db.Trans {
		if tr.Contains(pattern) {
			ts = append(ts, tr.TS)
		}
	}
	return ts
}

// ItemTSLists returns, for every item, its ordered occurrence timestamps.
// The result is indexed by ItemID.
func (db *DB) ItemTSLists() [][]int64 {
	lists := make([][]int64, db.Dict.Len())
	for _, tr := range db.Trans {
		for _, id := range tr.Items {
			lists[id] = append(lists[id], tr.TS)
		}
	}
	return lists
}

// Validate checks the structural invariants of the database: strictly
// increasing timestamps, sorted duplicate-free non-empty transactions, and
// item IDs within the dictionary range.
func (db *DB) Validate() error {
	if db.Dict == nil {
		return errors.New("tsdb: nil dictionary")
	}
	n := ItemID(db.Dict.Len())
	for i, tr := range db.Trans {
		if i > 0 && db.Trans[i-1].TS >= tr.TS {
			return fmt.Errorf("tsdb: transactions out of order at index %d (ts %d after %d)", i, tr.TS, db.Trans[i-1].TS)
		}
		if len(tr.Items) == 0 {
			return fmt.Errorf("tsdb: empty transaction at ts %d", tr.TS)
		}
		for j, id := range tr.Items {
			if id >= n {
				return fmt.Errorf("tsdb: transaction at ts %d references unknown item %d", tr.TS, id)
			}
			if j > 0 && tr.Items[j-1] >= id {
				return fmt.Errorf("tsdb: transaction at ts %d has unsorted or duplicate items", tr.TS)
			}
		}
	}
	return nil
}

// InternPattern converts item names into a sorted ItemID pattern. It returns
// an error naming the first unknown item.
func (db *DB) InternPattern(names []string) ([]ItemID, error) {
	ids := make([]ItemID, 0, len(names))
	for _, name := range names {
		id, ok := db.Dict.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("tsdb: unknown item %q", name)
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids, nil
}

// CompareItemsets orders itemsets canonically: by length, then
// lexicographically by item IDs. Every miner returns its patterns in this
// order so results can be compared directly.
func CompareItemsets(a, b []ItemID) int {
	if len(a) != len(b) {
		return cmp.Compare(len(a), len(b))
	}
	return slices.Compare(a, b)
}

// SortedItems returns a sorted copy of items.
func SortedItems(items []ItemID) []ItemID {
	out := slices.Clone(items)
	slices.Sort(out)
	return out
}

// PatternNames renders a sorted ItemID pattern back into item names.
func (db *DB) PatternNames(pattern []ItemID) []string {
	names := make([]string, len(pattern))
	for i, id := range pattern {
		names[i] = db.Dict.Name(id)
	}
	return names
}
