package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/recurpat/rp/internal/tsdb"
)

// registryTestServer starts a registry-only server: no preloaded
// databases, everything arrives through POST /v1/datasets.
func registryTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// testDBText renders testDB (or a variant shifted by seed) as TDB text.
func testDBText(t *testing.T, seed int64) []byte {
	t.Helper()
	b := tsdb.NewBuilder()
	ts := int64(1)
	for i := 0; i < 30; i++ {
		b.Add(fmt.Sprintf("bread-%d", seed), ts)
		if i%2 == 0 {
			b.Add("jam", ts)
		}
		ts += 2
	}
	var buf bytes.Buffer
	if err := tsdb.Write(&buf, b.Build()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// upload POSTs body to /v1/datasets and decodes the JSON response.
func upload(t *testing.T, base string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/datasets", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding upload response: %v", err)
	}
	return resp.StatusCode, m
}

func listDatasets(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDatasetLifecycle(t *testing.T) {
	_, hs := registryTestServer(t, Config{})

	// Upload (text format) and get a fingerprint back.
	status, up := upload(t, hs.URL, testDBText(t, 1))
	if status != http.StatusCreated {
		t.Fatalf("upload: status %d, body %v", status, up)
	}
	fp, _ := up["fingerprint"].(string)
	if len(fp) != 16 {
		t.Fatalf("upload returned bad fingerprint %q", fp)
	}
	if up["existing"] != false || up["transactions"].(float64) != 30 {
		t.Errorf("unexpected upload response: %v", up)
	}

	// Re-uploading the same content is idempotent: same fingerprint,
	// existing=true, 200 instead of 201.
	status, again := upload(t, hs.URL, testDBText(t, 1))
	if status != http.StatusOK || again["existing"] != true || again["fingerprint"] != fp {
		t.Fatalf("re-upload: status %d, body %v", status, again)
	}

	// The same database in v2 mapped format fingerprints identically, so
	// the registry deduplicates across formats too.
	db, err := tsdb.ReadBytes(testDBText(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := tsdb.WriteMapped(&v2, db); err != nil {
		t.Fatal(err)
	}
	if status, m := upload(t, hs.URL, v2.Bytes()); status != http.StatusOK || m["fingerprint"] != fp {
		t.Fatalf("v2 re-upload: status %d, body %v", status, m)
	}

	// Mine by fingerprint.
	status, mine := postMine(t, hs.URL, fmt.Sprintf(`{"dataset":%q,"per":4,"minPS":3}`, fp))
	if status != http.StatusOK {
		t.Fatalf("mine by fingerprint: status %d, body %v", status, mine)
	}
	if n := mine["count"].(float64); n < 1 {
		t.Fatalf("mine by fingerprint found no patterns: %v", mine)
	}

	// An identical repeat hits the result cache (keyed by fingerprint).
	if status, second := postMine(t, hs.URL, fmt.Sprintf(`{"dataset":%q,"per":4,"minPS":3}`, fp)); status != http.StatusOK || second["cached"] != true {
		t.Fatalf("repeat mine not cached: status %d, body %v", status, second)
	}

	// The listing shows the dataset with its mine hits.
	ls := listDatasets(t, hs.URL)
	if ls["count"].(float64) != 1 {
		t.Fatalf("listing: %v", ls)
	}
	ds := ls["datasets"].([]any)[0].(map[string]any)
	if ds["fingerprint"] != fp || ds["hits"].(float64) < 2 {
		t.Errorf("listing entry: %v", ds)
	}

	// DELETE evicts; mining it afterwards is a 404.
	req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/datasets/"+fp, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if status, m := postMine(t, hs.URL, fmt.Sprintf(`{"dataset":%q,"per":4,"minPS":3}`, fp)); status != http.StatusNotFound {
		t.Fatalf("mine after delete: status %d, body %v", status, m)
	}
}

func TestDatasetUploadErrors(t *testing.T) {
	_, hs := registryTestServer(t, Config{MaxUpload: 256})

	// Unparseable content is a 400 naming the parse error.
	status, m := upload(t, hs.URL, []byte("not-a-number\tx\n"))
	if status != http.StatusBadRequest || !strings.Contains(m["error"].(string), "parsing dataset") {
		t.Fatalf("bad upload: status %d, body %v", status, m)
	}

	// A body in the retired v1 binary format is a 400 naming the format,
	// not a text parse error.
	status, m = upload(t, hs.URL, []byte("RPDB\x01\x01\x01a\x01\x01\x01\x00"))
	if status != http.StatusBadRequest || !strings.Contains(m["error"].(string), "v1 binary") {
		t.Fatalf("v1 upload: status %d, body %v", status, m)
	}

	// An over-limit body gets the same JSON 413 shape as /v1/mine.
	status, m = upload(t, hs.URL, bytes.Repeat([]byte("1\tx\n"), 200))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, body %v", status, m)
	}
	if !strings.Contains(m["error"].(string), "256-byte limit") {
		t.Errorf("413 body does not name the limit: %v", m)
	}

	// Naming both db and dataset in a mine request is rejected.
	if status, m := postMine(t, hs.URL, `{"db":"shop","dataset":"0123456789abcdef"}`); status != http.StatusBadRequest {
		t.Fatalf("db+dataset mine: status %d, body %v", status, m)
	}

	// A malformed fingerprint is a 400, an unknown one a 404.
	if status, _ := postMine(t, hs.URL, `{"dataset":"xyz"}`); status != http.StatusBadRequest {
		t.Fatalf("bad fingerprint: status %d", status)
	}
	if status, _ := postMine(t, hs.URL, `{"dataset":"0123456789abcdef"}`); status != http.StatusNotFound {
		t.Fatalf("unknown fingerprint: status %d", status)
	}

	// DELETE of an unknown fingerprint is a 404.
	req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/datasets/0123456789abcdef", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete unknown: status %d", resp.StatusCode)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	s, hs := registryTestServer(t, Config{RegistryMaxEntries: 2})

	fps := make([]string, 3)
	for i := range fps {
		status, m := upload(t, hs.URL, testDBText(t, int64(i)))
		if status != http.StatusCreated {
			t.Fatalf("upload %d: status %d, body %v", i, status, m)
		}
		fps[i] = m["fingerprint"].(string)
	}

	// The third upload displaced the least recently used (the first).
	entries, _ := s.registry.stats()
	if entries != 2 {
		t.Fatalf("registry holds %d entries, want 2", entries)
	}
	if status, _ := postMine(t, hs.URL, fmt.Sprintf(`{"dataset":%q,"per":4,"minPS":3}`, fps[0])); status != http.StatusNotFound {
		t.Errorf("evicted dataset still minable: status %d", status)
	}
	if status, _ := postMine(t, hs.URL, fmt.Sprintf(`{"dataset":%q,"per":4,"minPS":3}`, fps[1])); status != http.StatusOK {
		t.Errorf("retained dataset not minable: status %d", status)
	}

	// Mining fps[1] made it most recently used, so a fourth upload must
	// displace fps[2] instead.
	status, m := upload(t, hs.URL, testDBText(t, 9))
	if status != http.StatusCreated {
		t.Fatalf("fourth upload: status %d, body %v", status, m)
	}
	if _, ok := s.registry.get(mustFP(t, fps[1])); !ok {
		t.Error("recently mined dataset was evicted instead of the LRU one")
	}
	if _, ok := s.registry.get(mustFP(t, fps[2])); ok {
		t.Error("least recently used dataset survived eviction")
	}
	if m["evicted"].(float64) != 1 {
		t.Errorf("upload response reported evicted=%v, want 1", m["evicted"])
	}
}

func TestRegistryByteBound(t *testing.T) {
	// A byte budget large enough for roughly one test dataset: the second
	// upload must displace the first, and a dataset bigger than the whole
	// budget is rejected outright.
	db, err := tsdb.ReadBytes(testDBText(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	budget := estimateDBBytes(db) + estimateDBBytes(db)/2
	s, hs := registryTestServer(t, Config{RegistryMaxBytes: budget})

	status, first := upload(t, hs.URL, testDBText(t, 0))
	if status != http.StatusCreated {
		t.Fatalf("first upload: status %d, body %v", status, first)
	}
	status, second := upload(t, hs.URL, testDBText(t, 1))
	if status != http.StatusCreated || second["evicted"].(float64) != 1 {
		t.Fatalf("second upload: status %d, body %v", status, second)
	}
	entries, bytes := s.registry.stats()
	if entries != 1 || bytes > budget {
		t.Fatalf("registry at %d entries / %d bytes, want 1 entry within %d", entries, bytes, budget)
	}

	// Oversized dataset: many more transactions than the budget covers.
	_, hs2 := registryTestServer(t, Config{RegistryMaxBytes: 64})
	status, m := upload(t, hs2.URL, testDBText(t, 5))
	if status != http.StatusRequestEntityTooLarge || !strings.Contains(m["error"].(string), "registry memory budget") {
		t.Fatalf("oversized dataset: status %d, body %v", status, m)
	}
}

func TestRegistryOnlyServerStats(t *testing.T) {
	_, hs := registryTestServer(t, Config{})

	// A registry-only server starts, reports empty stats, and gives a
	// helpful error for an unnamed mine.
	stats := getStats(t, hs.URL)
	reg, ok := stats["registry"].(map[string]any)
	if !ok || reg["entries"].(float64) != 0 {
		t.Fatalf("registry stats: %v", stats["registry"])
	}
	status, m := postMine(t, hs.URL, `{"per":4,"minPS":3}`)
	if status != http.StatusBadRequest || !strings.Contains(m["error"].(string), "upload one to /v1/datasets") {
		t.Fatalf("unnamed mine on empty server: status %d, body %v", status, m)
	}

	if _, m := upload(t, hs.URL, testDBText(t, 3)); m["fingerprint"] == "" {
		t.Fatal("upload failed on registry-only server")
	}
	stats = getStats(t, hs.URL)
	if reg := stats["registry"].(map[string]any); reg["entries"].(float64) != 1 {
		t.Fatalf("registry stats after upload: %v", reg)
	}
	if metric(t, stats, "uploads") != 1 {
		t.Errorf("uploads counter: %v", metric(t, stats, "uploads"))
	}
}

func mustFP(t *testing.T, s string) uint64 {
	t.Helper()
	fp, err := parseFingerprint(s)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}
