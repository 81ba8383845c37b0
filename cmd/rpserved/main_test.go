package main

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/serve"
	"github.com/recurpat/rp/internal/tsdb"
)

func TestParseDatasetSpec(t *testing.T) {
	cases := []struct {
		spec  string
		name  string
		scale float64
		seed  uint64
		ok    bool
	}{
		{"shop14", "shop14", 1, 1, true},
		{"shop14:0.05", "shop14", 0.05, 1, true},
		{"twitter:0.5:7", "twitter", 0.5, 7, true},
		{"", "", 0, 0, false},
		{"shop14:zero", "", 0, 0, false},
		{"shop14:1:-2", "", 0, 0, false},
		{"shop14:1:2:3", "", 0, 0, false},
		{"shop14:0", "", 0, 0, false},
		{"shop14:NaN", "", 0, 0, false},
		{"shop14:+Inf", "", 0, 0, false},
	}
	for _, c := range cases {
		name, scale, seed, err := parseDatasetSpec(c.spec)
		if (err == nil) != c.ok {
			t.Errorf("parseDatasetSpec(%q): err = %v, want ok=%v", c.spec, err, c.ok)
			continue
		}
		if c.ok && (name != c.name || scale != c.scale || seed != c.seed) {
			t.Errorf("parseDatasetSpec(%q) = (%q, %v, %d)", c.spec, name, scale, seed)
		}
	}
}

func writeTestDB(t *testing.T) string {
	t.Helper()
	b := tsdb.NewBuilder()
	for ts := int64(1); ts <= 40; ts += 2 {
		b.Add("bread", ts)
		b.Add("jam", ts)
	}
	path := filepath.Join(t.TempDir(), "shop.tdb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tsdb.Write(f, b.Build()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadDatabases(t *testing.T) {
	path := writeTestDB(t)

	dbs, err := loadDatabases([]string{"shop=" + path}, []string{"shop14:0.02:3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(dbs) != 2 || dbs["shop"] == nil || dbs["shop14"] == nil {
		t.Fatalf("loaded %d databases: %v", len(dbs), dbs)
	}
	if dbs["shop"].Len() != 20 {
		t.Errorf("shop has %d transactions, want 20", dbs["shop"].Len())
	}

	for _, bad := range [][2][]string{
		{{"shop"}, nil},                         // missing =path
		{{"=x"}, nil},                           // empty name
		{{"shop=" + path, "shop=" + path}, nil}, // duplicate file name
		{{"shop14=" + path}, {"shop14"}},        // duplicate across kinds
		{{"shop=/does/not/exist.tdb"}, nil},     // unreadable file
		{nil, []string{"unknowndataset"}},       // bench.Load rejects
	} {
		if _, err := loadDatabases(bad[0], bad[1]); err == nil {
			t.Errorf("loadDatabases(%v, %v) succeeded, want error", bad[0], bad[1])
		}
	}

	// No specs is valid since the dataset registry: a registry-only server
	// starts empty and serves whatever clients upload.
	if dbs, err := loadDatabases(nil, nil); err != nil || len(dbs) != 0 {
		t.Errorf("loadDatabases(nil, nil) = %v, %v; want empty map", dbs, err)
	}
}

// TestServerWiring loads databases the way main does and checks the
// resulting handler answers; full process lifecycle (signals, drain) is
// exercised by scripts/smoke_rpserved.sh.
func TestServerWiring(t *testing.T) {
	dbs, err := loadDatabases([]string{"shop=" + writeTestDB(t)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{}, dbs)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	resp, err := http.Post(hs.URL+"/v1/mine", "application/json",
		strings.NewReader(`{"db":"shop","per":2,"minPS":3,"minRec":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine via loaded db: status %d", resp.StatusCode)
	}
}

// TestObservabilityWiring serves with the same config shape run() builds
// from -max-body/-pprof and checks the observability surface answers: a
// Prometheus scrape, an access-log line, a 413 on an oversized body, and
// the pprof mount.
func TestObservabilityWiring(t *testing.T) {
	dbs, err := loadDatabases([]string{"shop=" + writeTestDB(t)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf strings.Builder
	var mu sync.Mutex
	logw := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logBuf.Write(p)
	})
	srv, err := serve.NewServer(serve.Config{
		MaxBody: 128,
		Logger:  obs.NewLogger(logw, slog.LevelInfo),
		Pprof:   true,
	}, dbs)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/mine", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(`{"db":"shop","per":2,"minPS":3,"minRec":1}`); got != http.StatusOK {
		t.Fatalf("mine: status %d", got)
	}
	if got := post(strings.Repeat(" ", 256) + `{"db":"shop","per":2}`); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", got)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"rpserved_mining_seconds_bucket", "rpserved_requests_total 2"} {
		if !strings.Contains(string(scrape), want) {
			t.Errorf("metrics scrape missing %q:\n%s", want, scrape)
		}
	}

	resp, err = http.Get(hs.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof mount: status %d", resp.StatusCode)
	}

	mu.Lock()
	logs := logBuf.String()
	mu.Unlock()
	for _, want := range []string{"outcome=ok", "outcome=body-too-large", "id="} {
		if !strings.Contains(logs, want) {
			t.Errorf("access log missing %q:\n%s", want, logs)
		}
	}
}

// writerFunc adapts a function to io.Writer for log capture.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
