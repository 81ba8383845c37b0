// Command rpbench regenerates the tables and figures of the paper's
// evaluation section on the simulated datasets.
//
// Usage:
//
//	rpbench [flags] <experiment>
//
// where <experiment> is one of
//
//	table5    number of recurring patterns over the full threshold grid
//	table6    rediscovered Twitter event patterns with periodic durations
//	table7    RP-growth runtime over the full threshold grid
//	table8    PF vs recurring vs p-pattern comparison (Shop-14, Twitter)
//	figure7   recurring pattern counts vs minPS sweep (Twitter)
//	figure8   daily frequencies of the Figure 8 hashtags
//	figure9   RP-growth runtime vs minPS sweep (Twitter)
//	sweep     figure7 and figure9 from a single sweep (half the mining)
//	ablation  design-choice studies: pruning, tree vs vertical, item order
//	all       everything above, in order
//
// -scale runs reduced datasets (same distributions) for quick smoke runs;
// EXPERIMENTS.md records full-scale (-scale 1) output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"github.com/recurpat/rp/internal/bench"
	"github.com/recurpat/rp/internal/cliio"
	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rpbench:", err)
		os.Exit(1)
	}
}

func run(args []string, dst, errDst io.Writer) error {
	// Latch write errors once instead of checking every table print.
	out := cliio.NewWriter(dst)
	fs := flag.NewFlagSet("rpbench", flag.ContinueOnError)
	var (
		scale   = fs.Float64("scale", 1.0, "dataset size relative to the paper")
		seed    = fs.Uint64("seed", 1, "generator seed")
		dataset = fs.String("dataset", "", "restrict table5/table7/table8 to one dataset")
		from    = fs.Float64("sweep-from", 2, "figure7/9: first minPS percentage")
		to      = fs.Float64("sweep-to", 10, "figure7/9: last minPS percentage")
		step    = fs.Float64("sweep-step", 1, "figure7/9: minPS percentage step")
		t8sup   = fs.Float64("table8-sup-pct", 0, "table8: override minSup/minPS percentage (0 = paper values; raise for reduced scales)")
		t7mult  = fs.Float64("table7-ps-mult", 1, "table7: multiply the paper minPS percentages (raise for reduced scales)")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the experiments to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file on exit")
		jsonOut = fs.String("json", "", "trace the timed experiments (table7) and write phase-attributed benchmark rows to this JSON report file")
		verbose = fs.Bool("v", false, "structured progress logs on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one experiment argument, got %d (see -h)", fs.NArg())
	}
	exp := fs.Arg(0)

	datasets := bench.DatasetNames()
	if *dataset != "" {
		datasets = []string{*dataset}
	}

	experiments := []string{exp}
	if exp == "all" {
		// "sweep" covers figure7 and figure9 with one set of mining runs.
		experiments = []string{"table5", "table6", "table7", "table8", "sweep", "figure8", "ablation"}
	}
	logger := obs.NopLogger()
	if *verbose {
		logger = obs.NewLogger(errDst, slog.LevelInfo)
	}
	var rep *bench.Report
	if *jsonOut != "" {
		rep = &bench.Report{Context: map[string]string{
			"tool":  "rpbench",
			"scale": fmt.Sprintf("%g", *scale),
			"seed":  fmt.Sprintf("%d", *seed),
		}}
	}
	err := cliio.Profile(*cpuProf, *memProf, func() error {
		for _, e := range experiments {
			start := time.Now() //rpvet:allow determinism — elapsed-time reporting is the point here
			fmt.Fprintf(out, "== %s (scale %g, seed %d) ==\n", e, *scale, *seed)
			logger.Info("experiment start", "experiment", e, "scale", *scale, "seed", *seed)
			if err := runOne(e, datasets, *scale, *seed, *from, *to, *step, *t8sup, *t7mult, out, logger, rep); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
			elapsed := time.Since(start)
			logger.Info("experiment done", "experiment", e, "elapsedMS", float64(elapsed)/1e6)
			fmt.Fprintf(out, "-- %s done in %v --\n\n", e, elapsed.Round(time.Millisecond))
		}
		return out.Err()
	})
	if err != nil || rep == nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("-json %s: no timed experiment in %v produced benchmark rows (phase attribution comes from table7)", *jsonOut, experiments)
	}
	data, merr := json.MarshalIndent(rep, "", "  ")
	if merr != nil {
		return merr
	}
	logger.Info("benchmark report written", "path", *jsonOut, "rows", len(rep.Benchmarks))
	return os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
}

func runOne(exp string, datasets []string, scale float64, seed uint64, from, to, step, t8sup, t7mult float64, out *cliio.Writer, logger *slog.Logger, rep *bench.Report) error {
	load := func(name string) (*bench.Dataset, error) {
		start := time.Now() //rpvet:allow determinism — load-time reporting for -v
		d, err := bench.Load(name, scale, seed)
		if err == nil {
			logger.Info("dataset loaded", "dataset", name,
				"transactions", d.DB.Len(), "loadMS", float64(time.Since(start))/1e6)
		}
		return d, err
	}
	twitter := func() (*bench.Dataset, error) { return load("twitter") }
	switch exp {
	case "table5":
		for _, name := range datasets {
			d, err := load(name)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "#", name, tsdb.ComputeStats(d.DB))
			rows, err := bench.Table5(d)
			if err != nil {
				return err
			}
			fmt.Fprint(out, bench.FormatTable5(rows))
		}
	case "table6":
		d, err := twitter()
		if err != nil {
			return err
		}
		rows, err := bench.Table6(d, 2)
		if err != nil {
			return err
		}
		fmt.Fprint(out, bench.FormatTable6(rows))
	case "table7":
		for _, name := range datasets {
			d, err := load(name)
			if err != nil {
				return err
			}
			if t7mult != 1 {
				// Reduced-scale datasets keep full-rate transactions, so
				// the paper's minPS percentages admit far more mining work
				// than full-size runs; let smokes raise them.
				scaled := *d
				for i, pct := range d.MinPSPercents {
					scaled.MinPSPercents[i] = pct * t7mult
				}
				d = &scaled
			}
			if rep == nil {
				rows, err := bench.Table7(d)
				if err != nil {
					return err
				}
				fmt.Fprint(out, bench.FormatTable7(rows))
				continue
			}
			// -json: trace every grid cell and keep the report-shaped
			// rows with per-phase attribution for the report file.
			rows, bms, err := bench.Table7Traced(d)
			if err != nil {
				return err
			}
			fmt.Fprint(out, bench.FormatTable7(rows))
			fmt.Fprint(out, bench.FormatPhaseMetrics(bms))
			rep.Benchmarks = append(rep.Benchmarks, bms...)
		}
	case "table8":
		for _, name := range datasets {
			if name == "t10i4d100k" {
				continue // the paper compares on Shop-14 and Twitter only
			}
			d, err := load(name)
			if err != nil {
				return err
			}
			o := bench.DefaultTable8Options(name)
			if t8sup > 0 {
				o.SupPercent = t8sup
			}
			rows, err := bench.Table8(d, o)
			if err != nil {
				return err
			}
			fmt.Fprint(out, bench.FormatTable8(rows))
		}
	case "figure7", "figure9", "sweep":
		d, err := twitter()
		if err != nil {
			return err
		}
		points, err := bench.Sweep(d, from, to, step)
		if err != nil {
			return err
		}
		if exp == "figure7" || exp == "sweep" {
			fmt.Fprintln(out, "# Figure 7: number of recurring patterns")
			fmt.Fprint(out, bench.FormatSweep(points, true))
		}
		if exp == "figure9" || exp == "sweep" {
			fmt.Fprintln(out, "# Figure 9: runtime (seconds)")
			fmt.Fprint(out, bench.FormatSweep(points, false))
		}
	case "figure8":
		d, err := twitter()
		if err != nil {
			return err
		}
		fmt.Fprint(out, bench.FormatFigure8(bench.Figure8(d)))
	case "shape":
		var all []bench.Table5Row
		for _, name := range datasets {
			d, err := load(name)
			if err != nil {
				return err
			}
			rows, err := bench.Table5(d)
			if err != nil {
				return err
			}
			all = append(all, rows...)
		}
		fmt.Fprint(out, bench.FormatTable5(all))
		fmt.Fprint(out, bench.FormatShapeReport(bench.ShapeReport(all)))
	case "ablation":
		for _, name := range datasets {
			d, err := load(name)
			if err != nil {
				return err
			}
			o := core.Options{
				Per:    720,
				MinPS:  core.MinPSFromPercent(d.DB, d.MinPSPercents[1]),
				MinRec: 2,
			}
			// Same Options.Validate gate (and error text) as every other
			// entry point, before committing to a long ablation run.
			if err := o.Validate(); err != nil {
				return err
			}
			rows, err := bench.Ablations(d, o)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "# %s (per=%d minPS=%d minRec=%d)\n", name, o.Per, o.MinPS, o.MinRec)
			fmt.Fprint(out, bench.FormatAblations(rows))
		}
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
