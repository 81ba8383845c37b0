package analysis

import (
	"runtime"
	"sync"
)

// Driver runs a pass suite over a set of package directories in parallel.
// Its contract is byte-determinism: for the same tree and pass suite, the
// merged, sorted diagnostics are identical whatever Workers is.
// Scheduling only ever decides *when* a package's passes run, never what
// they report, and the merge discards arrival order entirely.
type Driver struct {
	// Root is the module root directory (holding go.mod).
	Root string
	// Passes is the suite to run, in suite order.
	Passes []*Pass
	// Workers bounds load and pass concurrency; <=0 means GOMAXPROCS,
	// 1 is strictly sequential.
	Workers int
}

// Run analyzes the packages in dirs (which must sit inside Root) and
// returns the merged diagnostics in canonical order.
func (d *Driver) Run(dirs []string) ([]Diagnostic, error) {
	workers := d.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	loader, err := NewLoader(d.Root)
	if err != nil {
		return nil, err
	}
	loader.Workers = workers
	pkgs, err := loader.LoadDirs(dirs)
	if err != nil {
		return nil, err
	}

	// Run each package's passes as one task; results land in a
	// per-package slot, so scheduling cannot reorder anything.
	results := make([][]Diagnostic, len(pkgs))
	run := func(i int) {
		for _, pass := range d.Passes {
			results[i] = append(results[i], runPass(loader, pkgs[i], pass)...)
		}
	}
	if workers == 1 || len(pkgs) == 1 {
		for i := range pkgs {
			run(i)
		}
	} else {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i := range pkgs {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				run(i)
			}(i)
		}
		wg.Wait()
	}
	var diags []Diagnostic
	for _, r := range results {
		diags = append(diags, r...)
	}
	SortDiagnostics(diags)
	return diags, nil
}
