package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// fixture is the rpfix fixture module's root and its findings.
type fixture struct {
	root  string
	diags []Diagnostic
}

// fixtureRun runs the full pass suite over the rpfix fixture module once
// per test binary; every caller shares the result and must not modify it.
var fixtureRun = sync.OnceValues(func() (fixture, error) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "rpfix"))
	if err != nil {
		return fixture{}, err
	}
	diags, err := runDriver(root)
	return fixture{root: root, diags: diags}, err
})

// loadFixture returns the fixture module's root and its findings.
func loadFixture(t *testing.T) (string, []Diagnostic) {
	t.Helper()
	fx, err := fixtureRun()
	if err != nil {
		t.Fatalf("analysing the fixture module: %v", err)
	}
	if len(fx.diags) == 0 {
		t.Fatal("fixture module produced zero findings")
	}
	return fx.root, fx.diags
}

// TestFixtureGolden checks every pass against its golden findings on the
// rpfix fixture module. Regenerate with:
//
//	go test ./internal/analysis -run TestFixtureGolden -update
func TestFixtureGolden(t *testing.T) {
	root, diags := loadFixture(t)

	byPass := make(map[string][]string)
	for _, d := range diags {
		byPass[d.Pass] = append(byPass[d.Pass], d.String(root))
	}

	for _, p := range Passes() {
		t.Run(p.Name, func(t *testing.T) {
			got := strings.Join(byPass[p.Name], "\n")
			if got != "" {
				got += "\n"
			}
			golden := filepath.Join("testdata", "golden", p.Name+".txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden file (run with -update to create it): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings differ from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestFixtureFindsEveryKind spot-checks, independently of the golden
// files, that each seeded violation class in the fixture is reported and
// each deliberately clean construct is not.
func TestFixtureFindsEveryKind(t *testing.T) {
	root, diags := loadFixture(t)
	var all []string
	for _, d := range diags {
		all = append(all, d.String(root))
	}
	out := strings.Join(all, "\n")

	mustContain := []string{
		// determinism
		"det.go:14:9: determinism: time.Now",
		"det.go:19:9: determinism: auto-seeded rand.IntN",
		"det.go:31:2: determinism: map iteration order",
		// errcheck
		"cmd/tool/main.go:19:8: errcheck: (bufio.Writer).Flush",
		"cmd/tool/main.go:20:2: errcheck: fmt.Fprintln",
		"cmd/tool/main.go:29:2: errcheck: (os.File).Sync",
		"cmd/tool/main.go:30:5: errcheck: (os.File).Sync",
		// layering
		"badimport.go:7:2: layering: import of cmd/toolkit: cmd/ packages are leaves",
		"badimport.go:8:2: layering: import of internal/bench",
		"fake.go:10:14: layering: baseline packages may only use internal/core's measure API, not core.Mine",
		"ext/badserve.go:6:8: layering: import of internal/serve: only {cmd/rpserved} may import it",
		"bench/badanalysis.go:6:8: layering: import of internal/analysis: only {cmd/rpvet} may import it",
		"ext/badprof.go:6:8: layering: import of internal/obs/prof: only {internal/serve, cmd} may import it",
		"obs/prof/badimport.go:6:8: layering: import of internal/tsdb breaks the layering rules: internal/obs/prof may only import {internal/obs}",
		"serve/badimport.go:7:8: layering: import of internal/baseline/fake breaks the layering rules",
		// concurrency
		"conc.go:16:46: concurrency: goroutine captures loop variable r",
		"conc.go:16:4: concurrency: goroutine shares res",
		"conc.go:16:40: concurrency: goroutine shares parts",
		// sortslice
		"sortslice.go:14:2: sortslice: reflection-based sort.Slice on []int64",
		"sortslice.go:20:2: sortslice: reflection-based sort.SliceStable on []string",
		"sortonly.go:12:2: sortslice: reflection-based sort.Slice on []int64",
		// ctxflow
		"ctxflow.go:23:23: ctxflow: context.Background discards the in-scope context ctx",
		"ctxflow.go:29:23: ctxflow: context.TODO mints a fresh root below the edge layer",
		"ctxflow.go:35:9: ctxflow: call to Search ignores the in-scope context ctx; call SearchContext(ctx, ...)",
		"ctxflow.go:58:9: ctxflow: call to Run ignores the in-scope context ctx; call RunContext(ctx, ...)",
		// goroutine-lifecycle
		"conc.go:15:3: goroutine-lifecycle: goroutine has no visible join or cancel path",
		"lifecycle.go:14:2: goroutine-lifecycle: goroutine has no visible join or cancel path",
		"lifecycle.go:64:7: goroutine-lifecycle: method Count passes its receiver",
		"lifecycle.go:75:14: goroutine-lifecycle: assignment copies",
		"lifecycle.go:82:9: goroutine-lifecycle: range value b copies",
		"lifecycle.go:90:17: goroutine-lifecycle: call passes",
	}
	for _, want := range mustContain {
		if !strings.Contains(out, want) {
			t.Errorf("missing expected finding %q in:\n%s", want, out)
		}
	}

	mustNotContain := []string{
		"bench.go",             // time.Now there carries //rpvet:allow determinism
		"PickSeeded",           // explicitly seeded generator is clean
		"CollectSorted",        // collect-then-sort idiom is clean
		"FanOutClean",          // parameter passing + mutex + WaitGroup is clean
		"core.Recurrence",      // baseline use of the measure API is allowed
		"tsdb.go",              // the substrate package is entirely clean
		"serve/serve.go",       // serve importing core is within its Allow rule
		"cmd/rpserved/main.go", // the one importer the serve restriction permits
		"serve/profok.go",      // serve is inside the obs/prof restriction's allow list
		"obs/prof/prof.go",     // prof importing the obs substrate is its Allow rule
		"cmd/tool/ctx.go",      // the edge layer may mint root contexts
		"ctxflow.go:40",        // Threads passes its ctx along: clean
		"ctxflow.go:18",        // SearchContext's own body is clean
	}
	for _, bad := range mustNotContain {
		for _, line := range all {
			if strings.Contains(line, bad) {
				t.Errorf("unexpected finding mentioning %q: %s", bad, line)
			}
		}
	}

	// Clean lines of the errcheck fixture must stay silent: the deferred
	// Close, the Builder/stderr/stdout writes, and the explicit _ drop.
	for _, line := range all {
		if !strings.Contains(line, "cmd/tool/main.go") {
			continue
		}
		for _, cleanLine := range []string{":17:", ":23:", ":24:", ":25:", ":26:", ":28:"} {
			if strings.Contains(line, cleanLine) {
				t.Errorf("finding on a deliberately clean line: %s", line)
			}
		}
	}

	// The lifecycle fixture's disciplined goroutines (WaitGroup, channel,
	// context, carrier argument) and pointer-based lock handling must stay
	// silent: only the seeded lines may be reported.
	for _, line := range all {
		if !strings.Contains(line, "serve/lifecycle.go") {
			continue
		}
		seeded := false
		for _, want := range []string{":14:", ":64:", ":75:", ":82:", ":90:"} {
			if strings.Contains(line, want) {
				seeded = true
			}
		}
		if !seeded {
			t.Errorf("finding on a deliberately clean lifecycle line: %s", line)
		}
	}

	// The sortslice fixture's struct-element sort and the slices-based
	// variants must stay silent: only the two seeded reflection sorts on
	// basic-typed slices may be reported.
	for _, line := range all {
		if !strings.Contains(line, "sortslice.go") {
			continue
		}
		if !strings.Contains(line, ":14:") && !strings.Contains(line, ":20:") {
			t.Errorf("finding on a deliberately clean sortslice line: %s", line)
		}
	}
}

// TestAllowDirectiveParsing pins the directive grammar.
func TestAllowDirectiveParsing(t *testing.T) {
	cases := []struct {
		text string
		want []string
		ok   bool
	}{
		{"//rpvet:allow determinism", []string{"determinism"}, true},
		{"//rpvet:allow determinism,errcheck trailing reason", []string{"determinism", "errcheck"}, true},
		{"//rpvet:allow", nil, false},
		{"// rpvet:allow determinism", nil, false}, // space breaks the directive
		{"// plain comment", nil, false},
	}
	for _, c := range cases {
		got, ok := parseAllow(c.text)
		if ok != c.ok {
			t.Errorf("parseAllow(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("parseAllow(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}
