// Package bench regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment has a typed runner returning the
// rows the paper reports and a formatter rendering them as an aligned text
// table; cmd/rpbench drives the runners from the command line and
// bench_test.go wraps them in testing.B benchmarks.
package bench

import (
	"fmt"
	"math"
	"sync"

	"github.com/recurpat/rp/internal/gen"
	"github.com/recurpat/rp/internal/tsdb"
)

// Dataset bundles a generated database with the experiment parameters the
// paper uses for it (Table 4).
type Dataset struct {
	Name string
	DB   *tsdb.DB
	// MinPSPercents are the three minPS settings, as percentages of |TDB|.
	MinPSPercents [3]float64
	// Pers are the three period settings in timestamp units.
	Pers [3]int64
	// Events are the planted burst events (Twitter only).
	Events []gen.BurstEvent
}

// Pers and minRec values shared by every dataset (Table 4).
var (
	paperPers    = [3]int64{360, 720, 1440}
	paperMinRecs = [3]int{1, 2, 3}
)

type datasetKey struct {
	name  string
	scale float64
	seed  uint64
}

var (
	cacheMu sync.Mutex
	cache   = map[datasetKey]*Dataset{}
)

// CheckScale rejects a dataset scale that is not a positive finite number;
// the generators would otherwise clamp it to a tiny dataset without a word.
func CheckScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("bench: dataset scale must be positive and finite, got %v", scale)
	}
	return nil
}

// Load returns the named dataset ("t10i4d100k", "shop14" or "twitter") at
// the given scale (1.0 = the paper's size), generating and caching it on
// first use. Generation is deterministic in (name, scale, seed).
func Load(name string, scale float64, seed uint64) (*Dataset, error) {
	if err := CheckScale(scale); err != nil {
		return nil, err
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	key := datasetKey{name: name, scale: scale, seed: seed}
	if d, ok := cache[key]; ok {
		return d, nil
	}
	var d *Dataset
	switch name {
	case "t10i4d100k":
		db := gen.Quest(gen.DefaultQuest(seed).Scale(scale))
		d = &Dataset{Name: name, DB: db, MinPSPercents: [3]float64{0.1, 0.2, 0.3}, Pers: paperPers}
	case "shop14":
		db := gen.Shop(gen.DefaultShop(seed + 1).Scale(scale))
		d = &Dataset{Name: name, DB: db, MinPSPercents: [3]float64{0.1, 0.2, 0.3}, Pers: paperPers}
	case "twitter":
		db, events := gen.TwitterWithEvents(gen.DefaultTwitter(seed + 2).Scale(scale))
		d = &Dataset{Name: name, DB: db, MinPSPercents: [3]float64{2, 5, 10}, Pers: paperPers, Events: events}
	default:
		return nil, fmt.Errorf("bench: unknown dataset %q (want t10i4d100k, shop14 or twitter)", name)
	}
	cache[key] = d
	return d, nil
}

// DatasetNames lists the datasets in the paper's order.
func DatasetNames() []string { return []string{"t10i4d100k", "shop14", "twitter"} }

// LoadAll returns all three datasets.
func LoadAll(scale float64, seed uint64) ([]*Dataset, error) {
	var out []*Dataset
	for _, name := range DatasetNames() {
		d, err := Load(name, scale, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
