package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

func entryN(i int, elapsedMS float64) *RequestEntry {
	return &RequestEntry{ID: fmt.Sprintf("r%03d", i), Outcome: "ok", Status: 200, ElapsedMS: elapsedMS}
}

func TestJournalEvictionOrder(t *testing.T) {
	j := newJournal(4, time.Hour)
	for i := 0; i < 10; i++ {
		j.add(entryN(i, 1))
	}
	recent, slow, total := j.snapshot()
	if total != 10 {
		t.Errorf("total = %d, want 10", total)
	}
	if len(slow) != 0 {
		t.Errorf("entries under the slow threshold retained %d slow entries", len(slow))
	}
	// The ring keeps the newest 4, reported newest-first.
	want := []string{"r009", "r008", "r007", "r006"}
	if len(recent) != len(want) {
		t.Fatalf("recent has %d entries, want %d", len(recent), len(want))
	}
	for i, e := range recent {
		if e.ID != want[i] {
			t.Errorf("recent[%d] = %s, want %s", i, e.ID, want[i])
		}
	}
}

func TestJournalSlowBucketRetention(t *testing.T) {
	j := newJournal(2, 100*time.Millisecond)
	j.add(entryN(0, 250)) // slow
	j.add(entryN(1, 500)) // slower
	for i := 2; i < 6; i++ {
		j.add(entryN(i, 1)) // fast churn that evicts 0 and 1 from the ring
	}
	recent, slow, _ := j.snapshot()
	for _, e := range recent {
		if e.ID == "r000" || e.ID == "r001" {
			t.Errorf("slow entry %s still in the 2-slot ring after 4 fast adds", e.ID)
		}
	}
	// The slow bucket keeps them past ring churn, slowest first.
	if len(slow) != 2 || slow[0].ID != "r001" || slow[1].ID != "r000" {
		t.Fatalf("slow bucket = %v, want [r001 r000]", slowIDs(slow))
	}

	// Overflowing the bucket keeps only the slowBucketSize slowest.
	for i := 10; i < 10+2*slowBucketSize; i++ {
		j.add(entryN(i, float64(1000+i)))
	}
	_, slow, _ = j.snapshot()
	if len(slow) != slowBucketSize {
		t.Fatalf("slow bucket has %d entries, want cap %d", len(slow), slowBucketSize)
	}
	for i := 1; i < len(slow); i++ {
		if slow[i-1].ElapsedMS < slow[i].ElapsedMS {
			t.Fatalf("slow bucket out of order at %d: %v", i, slowIDs(slow))
		}
	}
	if slow[len(slow)-1].ElapsedMS < 1000 {
		t.Errorf("a pre-overflow entry survived %d slower ones: %v", 2*slowBucketSize, slowIDs(slow))
	}
}

func slowIDs(slow []*RequestEntry) []string {
	ids := make([]string, len(slow))
	for i, e := range slow {
		ids[i] = e.ID
	}
	return ids
}

// TestJournalConcurrent hammers add and snapshot from many
// goroutines; run under -race by make check.
func TestJournalConcurrent(t *testing.T) {
	j := newJournal(8, 50*time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j.add(entryN(w*1000+i, float64(i%120)))
				if i%17 == 0 {
					recent, slow, _ := j.snapshot()
					if len(recent) > 8 || len(slow) > slowBucketSize {
						t.Errorf("snapshot over caps: %d recent, %d slow", len(recent), len(slow))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	_, _, total := j.snapshot()
	if total != 8*200 {
		t.Errorf("total = %d, want %d", total, 8*200)
	}
}

// TestDebugRequestsJournal drives one server through the three interesting
// outcomes — a served mine, a cache hit, and a shed request — and checks
// /debug/requests lists all three with per-phase breakdowns.
func TestDebugRequestsJournal(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	fn := func(ctx context.Context, db *tsdb.DB, o core.Options) (*core.Result, error) {
		started <- struct{}{}
		<-release
		return core.MineContext(ctx, db, o)
	}
	_, hs := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1}, fn)

	servedBody := `{"db":"shop","per":4,"minPS":3,"minRec":1}`
	servedDone := make(chan int, 1)
	go func() {
		status, _ := postMine(t, hs.URL, servedBody)
		servedDone <- status
	}()
	<-started
	// Different key, slot busy, no queue: shed.
	if status, _ := postMine(t, hs.URL, `{"db":"shop","per":3,"minPS":2}`); status != http.StatusTooManyRequests {
		t.Fatalf("saturated request not shed: status %d", status)
	}
	close(release)
	if status := <-servedDone; status != http.StatusOK {
		t.Fatalf("served mine: status %d", status)
	}
	if status, m := postMine(t, hs.URL, servedBody); status != http.StatusOK || m["cached"] != true {
		t.Fatalf("repeat not cached: status %d cached=%v", status, m["cached"])
	}

	resp, body := getBody(t, hs.URL+"/debug/requests?format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/requests json: status %d", resp.StatusCode)
	}
	var jr struct {
		Total  int64           `json:"total"`
		Recent []*RequestEntry `json:"recent"`
	}
	decodeJSON(t, body, &jr)
	if jr.Total != 3 {
		t.Errorf("journal total = %d, want 3", jr.Total)
	}
	byOutcome := map[string]*RequestEntry{}
	for _, e := range jr.Recent {
		byOutcome[e.Outcome] = e
	}
	served, hit, shed := byOutcome["ok"], byOutcome["cache-hit"], byOutcome["shed"]
	if served == nil || hit == nil || shed == nil {
		t.Fatalf("journal lacks an outcome: have %v", slowIDs(jr.Recent))
	}
	// Executed and cached entries carry the producing run's phase
	// breakdown; the cached one is marked historic.
	for name, e := range map[string]*RequestEntry{"served": served, "cache-hit": hit} {
		phases := map[string]obs.PhaseStat{}
		for _, st := range e.Phases {
			phases[st.Phase] = st
		}
		for _, want := range []string{"scan", "tree-build", "mine", "finalize"} {
			if phases[want].Count == 0 {
				t.Errorf("%s entry lacks the %s phase: %v", name, want, e.Phases)
			}
		}
	}
	if hit.Historic != true || served.Historic != false {
		t.Errorf("historic flags: served=%v hit=%v, want false/true", served.Historic, hit.Historic)
	}
	if shed.Status != http.StatusTooManyRequests || len(shed.Phases) != 0 {
		t.Errorf("shed entry = %+v, want 429 with no phases", shed)
	}

	// The HTML view lists the same requests.
	resp, html := getBody(t, hs.URL+"/debug/requests")
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("debug/requests html: status %d type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{served.ID, hit.ID, shed.ID, "cache-hit", "shed", "scan"} {
		if !strings.Contains(html, want) {
			t.Errorf("html view lacks %q", want)
		}
	}
	if strings.Contains(html, "/debug/requests/trace") {
		t.Error("html view links the retired per-request trace download")
	}
	if resp, _ := getBody(t, hs.URL+"/debug/requests/trace?id="+served.ID); resp.StatusCode != http.StatusNotFound {
		t.Errorf("retired trace download: status %d, want 404", resp.StatusCode)
	}
}

func decodeJSON(t *testing.T, body string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
}

// journalIDs returns the journal's recent request IDs, newest first.
func journalIDs(t *testing.T, base string) []string {
	t.Helper()
	resp, err := http.Get(base + "/debug/requests?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr journalResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if len(jr.Recent) == 0 {
		t.Fatal("journal is empty")
	}
	ids := make([]string, len(jr.Recent))
	for i, e := range jr.Recent {
		ids[i] = e.ID
	}
	return ids
}

// TestRequestCostColumns pins the per-request cost plumbing: an executed
// mine journals nonzero alloc bytes, a cache hit re-serves the producing
// run's cost as historic, and the totals surface in /v1/stats and the
// /metrics exposition. The mine targets bigDB because the runtime's heap
// counters are span-granular — a toy mine's few KB can legitimately read
// as a zero delta.
func TestRequestCostColumns(t *testing.T) {
	s, err := NewServer(Config{}, map[string]*tsdb.DB{"big": bigDB()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	body := `{"db":"big","per":9,"minPS":5,"minRec":2}`
	if status, m := postMine(t, hs.URL, body); status != http.StatusOK {
		t.Fatalf("mine: status %d, body %v", status, m)
	}
	if status, m := postMine(t, hs.URL, body); status != http.StatusOK || m["cached"] != true {
		t.Fatalf("second mine: status %d, cached %v", status, m["cached"])
	}

	resp, err := http.Get(hs.URL + "/debug/requests?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr journalResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if len(jr.Recent) != 2 {
		t.Fatalf("journal has %d entries, want 2", len(jr.Recent))
	}
	hit, miss := jr.Recent[0], jr.Recent[1]
	if miss.AllocBytes == 0 {
		t.Errorf("executed mine journalled allocBytes=0, want nonzero")
	}
	if miss.CPUMS < 0 {
		t.Errorf("executed mine journalled cpuMS=%v, want >= 0", miss.CPUMS)
	}
	if !hit.Historic || hit.AllocBytes != miss.AllocBytes {
		t.Errorf("cache hit should inherit the producing run's cost: historic=%v alloc=%d vs %d",
			hit.Historic, hit.AllocBytes, miss.AllocBytes)
	}

	stats := getStats(t, hs.URL)
	if total := metric(t, stats, "requestAllocBytesTotal"); total != float64(miss.AllocBytes) {
		t.Errorf("stats requestAllocBytesTotal = %v, want %d (one executed mine)", total, miss.AllocBytes)
	}

	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`rpserved_request_alloc_bytes_bucket{le="65536"}`,
		`rpserved_request_alloc_bytes_bucket{le="+Inf"} 1`,
		"rpserved_request_alloc_bytes_count 1",
		`rpserved_request_cpu_seconds_bucket{le="+Inf"} 1`,
		"rpserved_request_cpu_seconds_count 1",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// bigDB builds a database heavy enough that mining it takes real CPU, so a
// profile capture window overlapping a stream of mines is dominated by
// labeled mining samples.
func bigDB() *tsdb.DB {
	b := tsdb.NewBuilder()
	items := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	ts := int64(1)
	for i := 0; i < 4000; i++ {
		for j, it := range items {
			if i%(j+2) == 0 {
				b.Add(it, ts)
			}
		}
		ts += 3
	}
	return b.Build()
}
