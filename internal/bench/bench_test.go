package bench

import (
	"math"
	"strings"
	"testing"

	"github.com/recurpat/rp/internal/core"
)

// Reduced scales keep the harness tests fast while exercising every runner
// end to end on real generator output. The scales are chosen so the
// percentage thresholds stay meaningful: at a too-small |TDB|, minPS=0.1%
// collapses to 1 and the pattern space explodes.
var testScales = map[string]float64{
	"t10i4d100k": 0.05, // 5,000 transactions -> minPS 0.1% = 5
	"shop14":     0.25, // ~10 days           -> minPS 0.1% = 14
	"twitter":    0.05, // ~6 days            -> minPS 2% = ~170
}

func loadT(t *testing.T, name string) *Dataset {
	t.Helper()
	d, err := Load(name, testScales[name], 1)
	if err != nil {
		t.Fatal(err)
	}
	// Raise the thresholds relative to the paper grid: scaled-down datasets
	// keep full-rate transactions, so paper-level minPS percentages admit
	// far more patterns (and far more mining work) than the full-size runs.
	scaled := *d
	scaled.MinPSPercents = [3]float64{
		d.MinPSPercents[0] * 5,
		d.MinPSPercents[1] * 5,
		d.MinPSPercents[2] * 5,
	}
	return &scaled
}

func TestLoadUnknownDataset(t *testing.T) {
	if _, err := Load("nope", 1, 1); err == nil {
		t.Error("unknown dataset must fail")
	}
}

// TestLoadRejectsBadScale pins that a scale the generators cannot honour
// fails with an error naming it instead of yielding a tiny dataset.
func TestLoadRejectsBadScale(t *testing.T) {
	for _, c := range []struct {
		scale float64
		want  string
	}{
		{math.NaN(), "NaN"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{-1, "-1"},
		{0, "0"},
	} {
		_, err := Load("shop14", c.scale, 1)
		if err == nil || !strings.Contains(err.Error(), "got "+c.want) {
			t.Errorf("Load(shop14, %v): err = %v, want one naming %s", c.scale, err, c.want)
		}
	}
}

func TestLoadCaches(t *testing.T) {
	a := loadT(t, "shop14")
	b := loadT(t, "shop14")
	if a.DB != b.DB {
		t.Error("same (name, scale, seed) should return the cached database")
	}
	names := DatasetNames()
	if len(names) != 3 {
		t.Errorf("DatasetNames = %v", names)
	}
	all, err := LoadAll(0.02, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Errorf("LoadAll returned %d datasets", len(all))
	}
}

func TestTable5Monotonicity(t *testing.T) {
	d := loadT(t, "shop14")
	rows, err := Table5(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	// Counts must not increase with minRec (nested pattern sets)...
	for _, r := range rows {
		for j := range paperPers {
			if r.Counts[1][j] > r.Counts[0][j] || r.Counts[2][j] > r.Counts[1][j] {
				t.Errorf("counts increase with minRec in row %+v", r)
			}
		}
		// ...and at minRec=1 must not decrease with per (longer periods only
		// merge or extend intervals, never destroy one interesting interval
		// without leaving a larger one).
		if r.Counts[0][0] > r.Counts[0][1] || r.Counts[0][1] > r.Counts[0][2] {
			t.Errorf("minRec=1 counts decrease with per in row %+v", r)
		}
	}
	// Counts must not increase with minPS at fixed (minRec, per).
	for i := 1; i < len(rows); i++ {
		for k := range paperMinRecs {
			for j := range paperPers {
				if rows[i].Counts[k][j] > rows[i-1].Counts[k][j] {
					t.Errorf("counts increase with minPS: %d%% -> %d patterns vs %d%% -> %d",
						int(rows[i-1].MinPSPercent*10), rows[i-1].Counts[k][j],
						int(rows[i].MinPSPercent*10), rows[i].Counts[k][j])
				}
			}
		}
	}
	out := FormatTable5(rows)
	if !strings.Contains(out, "shop14") {
		t.Error("FormatTable5 missing dataset name")
	}
}

func TestSweepAndFormats(t *testing.T) {
	d := loadT(t, "twitter")
	points, err := Sweep(d, 10, 20, 10) // minPS 10% and 20%
	if err != nil {
		t.Fatal(err)
	}
	// 2 minPS values x 3 pers x 3 minRecs.
	if len(points) != 18 {
		t.Fatalf("got %d points, want 18", len(points))
	}
	for _, p := range points {
		if p.Runtime <= 0 {
			t.Errorf("non-positive runtime at %+v", p)
		}
	}
	if s := FormatSweep(points, true); !strings.Contains(s, "minRec=3") {
		t.Errorf("FormatSweep counts missing blocks:\n%s", s)
	}
	if s := FormatSweep(points, false); !strings.Contains(s, "per=1440") {
		t.Errorf("FormatSweep runtimes missing series:\n%s", s)
	}
}

func TestTable6FindsPlantedEvents(t *testing.T) {
	// Use a larger slice of the Twitter data so at least one named event
	// window (pakvotes days 8-14) is fully inside the horizon.
	d, err := Load("twitter", 0.15, 1) // ~18 days
	if err != nil {
		t.Fatal(err)
	}
	// 6%% instead of the paper's 2%%: same reduced-scale reasoning as loadT.
	rows, err := Table6(d, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no planted events rediscovered")
	}
	for _, r := range rows {
		if len(r.Pattern) < 2 || len(r.Durations) == 0 || r.Cause == "" {
			t.Errorf("incomplete row %+v", r)
		}
	}
	out := FormatTable6(rows)
	if !strings.Contains(out, "planted burst") {
		t.Errorf("FormatTable6 missing cause:\n%s", out)
	}
}

func TestFigure8Series(t *testing.T) {
	d, err := Load("twitter", 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	series := Figure8(d)
	if len(series) != 4 {
		t.Fatalf("got %d series, want 4", len(series))
	}
	// nuclear bursts on days 5-23; with an 18-day horizon the in-window days
	// must dominate.
	for _, s := range series {
		if s.Tag != "nuclear" {
			continue
		}
		in, out := 0, 0
		for day, n := range s.Daily {
			if day >= 5 && day < 23 {
				in += n
			} else {
				out += n
			}
		}
		if in <= out {
			t.Errorf("nuclear not bursty: %d in window vs %d outside", in, out)
		}
	}
	if txt := FormatFigure8(series); !strings.Contains(txt, "uttarakhand") {
		t.Error("FormatFigure8 missing tag header")
	}
}

func TestTable7RunsAndFormats(t *testing.T) {
	d := loadT(t, "t10i4d100k")
	rows, err := Table7(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		for k := range paperMinRecs {
			for j := range paperPers {
				if r.Seconds[k][j] <= 0 {
					t.Errorf("non-positive runtime in %+v", r)
				}
			}
		}
	}
	if out := FormatTable7(rows); !strings.Contains(out, "t10i4d100k") {
		t.Error("FormatTable7 missing dataset name")
	}
}

func TestTable8Ordering(t *testing.T) {
	d := loadT(t, "shop14")
	o := DefaultTable8Options(d.Name)
	// Same reasoning as loadT: at reduced scale, paper-level minSup admits
	// an enormous p-pattern set; raise it while keeping all three models on
	// identical thresholds.
	o.SupPercent *= 20
	rows, err := Table8(d, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	pf, rp, pp := rows[0], rows[1], rows[2]
	// The paper's headline relations: PF <= recurring <= p-patterns in both
	// count and maximum length.
	if pf.Count > rp.Count || rp.Count > pp.Count {
		t.Errorf("count ordering violated: PF=%d RP=%d PP=%d", pf.Count, rp.Count, pp.Count)
	}
	if pf.MaxLen > rp.MaxLen || rp.MaxLen > pp.MaxLen {
		t.Errorf("max length ordering violated: PF=%d RP=%d PP=%d", pf.MaxLen, rp.MaxLen, pp.MaxLen)
	}
	if out := FormatTable8(rows); !strings.Contains(out, "p-patterns") {
		t.Error("FormatTable8 missing model name")
	}
}

func TestDefaultTable8Options(t *testing.T) {
	if o := DefaultTable8Options("twitter"); o.SupPercent != 2 {
		t.Errorf("twitter minSup%% = %f, want 2", o.SupPercent)
	}
	if o := DefaultTable8Options("shop14"); o.SupPercent != 0.1 {
		t.Errorf("shop14 minSup%% = %f, want 0.1", o.SupPercent)
	}
}

func TestAblationsConsistency(t *testing.T) {
	d := loadT(t, "t10i4d100k")
	o := core.Options{Per: 360, MinPS: core.MinPSFromPercent(d.DB, 0.5), MinRec: 2}
	rows, err := Ablations(d, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	// All variants must report the identical pattern count.
	for _, r := range rows[1:] {
		if r.Patterns != rows[0].Patterns {
			t.Errorf("%s/%s found %d patterns, want %d", r.Name, r.Variant, r.Patterns, rows[0].Patterns)
		}
	}
	// Pruning off must examine at least as many patterns as pruning on.
	if rows[1].Examined < rows[0].Examined {
		t.Errorf("pruning off examined %d < on %d", rows[1].Examined, rows[0].Examined)
	}
	if out := FormatAblations(rows); !strings.Contains(out, "erec-pruning") {
		t.Errorf("FormatAblations missing mechanism:\n%s", out)
	}
}
