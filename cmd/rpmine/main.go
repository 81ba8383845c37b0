// Command rpmine discovers recurring patterns in a time-based transactional
// database file.
//
// The input format is one transaction per line: "timestamp<TAB>item item
// ...". Thresholds follow the paper: -per bounds the inter-arrival time of
// a periodic appearance, -minps is the minimum periodic support of an
// interesting interval (absolute count, or a percentage of |TDB| with
// -minps-pct), and -minrec is the minimum number of interesting intervals.
//
// Example:
//
//	rpgen -dataset shop14 -out shop.tdb
//	rpmine -input shop.tdb -per 720 -minps-pct 0.2 -minrec 2
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"github.com/recurpat/rp"
	"github.com/recurpat/rp/internal/cliio"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/shard"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rpmine:", err)
		os.Exit(1)
	}
}

func run(args []string, dst, errDst io.Writer) error {
	// Latch write errors (broken pipe, full disk) and report them once at
	// the end instead of checking every print.
	out := cliio.NewWriter(dst)
	fs := flag.NewFlagSet("rpmine", flag.ContinueOnError)
	var (
		input    = fs.String("input", "-", "transaction file to mine ('-' for stdin)")
		per      = fs.Int64("per", 0, "period threshold (required, timestamp units)")
		minPS    = fs.Int("minps", 0, "minimum periodic support (absolute)")
		minPSPct = fs.Float64("minps-pct", 0, "minimum periodic support as a percentage of |TDB| (alternative to -minps)")
		minRec   = fs.Int("minrec", 1, "minimum recurrence")
		maxLen   = fs.Int("maxlen", 0, "maximum pattern length (0 = unlimited)")
		parallel = fs.Int("parallel", 0, "mine top-level items with this many goroutines (0/1 = sequential)")
		shards   = fs.Int("shards", 0, "mine as this many scatter-gather shard tasks (0/1 = off; output is identical)")
		stats    = fs.Bool("stats", false, "print database and search statistics")
		format   = fs.String("format", "text", "output format: text, tsv, json or csv")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		phases   = fs.Bool("phases", false, "print a per-phase time and work breakdown to stderr after mining")
		verbose  = fs.Bool("v", false, "structured progress logs on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := obs.NopLogger()
	if *verbose {
		logger = obs.NewLogger(errDst, slog.LevelInfo)
	}
	o := rp.Options{
		Per:          *per,
		MinPS:        *minPS,
		MinRec:       *minRec,
		MaxLen:       *maxLen,
		Parallelism:  *parallel,
		CollectStats: *stats,
	}
	if *phases {
		o.Trace = rp.NewTrace()
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be >= 0, got %d", *shards)
	}
	err := cliio.Profile(*cpuProf, *memProf, func() error {
		return mine(*input, *minPSPct, *shards, *stats, *format, o, out, logger)
	})
	if err == nil && *phases {
		// The phase table goes to stderr so -format json/csv output on
		// stdout stays machine-readable with -phases on.
		if _, werr := io.WriteString(errDst, o.Trace.Report().String()); werr != nil {
			return werr
		}
	}
	return err
}

// mine loads the database, runs the miner and renders the result; split from
// run so the profiling wrapper brackets exactly the load-mine-print work.
func mine(input string, minPSPct float64, shards int, stats bool, format string, o rp.Options, out *cliio.Writer, logger *slog.Logger) error {
	loadStart := obs.Now()
	var db *rp.DB
	if input == "-" {
		var err error
		db, err = rp.ReadDB(os.Stdin) // auto-detects text or v2 mapped
		if err != nil {
			return err
		}
	} else {
		// Files go through OpenDBFile: text parses in one pass, v2 mapped
		// files open as memory-mapped views with no decode loop.
		fh, err := rp.OpenDBFile(input)
		if err != nil {
			return err
		}
		defer fh.Close()
		db = fh.DB()
	}
	logger.Info("database loaded", "input", input, "transactions", db.Len(),
		"loadMS", float64(obs.Since(loadStart))/1e6)
	if o.MinPS == 0 && minPSPct > 0 {
		o.MinPS = rp.MinPSFromPercent(db, minPSPct)
	}
	// Validate here, once the percentage form is resolved, so bad flags
	// fail with the same Options.Validate text every entry point reports.
	if err := o.Validate(); err != nil {
		return err
	}
	if stats {
		fmt.Fprintln(out, "# db:", rp.ComputeStats(db))
		fmt.Fprintf(out, "# thresholds: per=%d minPS=%d minRec=%d\n", o.Per, o.MinPS, o.MinRec)
	}
	mineStart := obs.Now()
	var res *rp.Result
	var err error
	if shards > 1 {
		// Scatter-gather over local shard tasks: the same planner, executor
		// and reducer the -peers serving mode uses, minus the network. The
		// pattern set is byte-identical to the direct mine.
		c := &shard.Coordinator{Count: shards, Exec: shard.Local{}}
		res, err = c.Mine(context.Background(), db, o)
	} else {
		res, err = rp.MineRaw(db, o)
	}
	if err != nil {
		return err
	}
	logger.Info("mining done", "patterns", len(res.Patterns),
		"per", o.Per, "minPS", o.MinPS, "minRec", o.MinRec,
		"mineMS", float64(obs.Since(mineStart))/1e6)
	if stats {
		fmt.Fprintf(out, "# search: candidates=%d examined=%d pruned=%d treeNodes=%d depth=%d\n",
			res.Stats.CandidateItems, res.Stats.PatternsExamined, res.Stats.PatternsPruned,
			res.Stats.TreeNodes, res.Stats.MaxDepth)
		fmt.Fprintf(out, "# patterns: %d (max length %d)\n", len(res.Patterns), res.MaxLen())
	}

	switch format {
	case "json", "csv":
		named := make([]rp.Pattern, len(res.Patterns))
		for i, p := range res.Patterns {
			named[i] = rp.Pattern{
				Items:      db.PatternNames(p.Items),
				Support:    p.Support,
				Recurrence: p.Recurrence,
				Intervals:  p.Intervals,
			}
		}
		if format == "json" {
			return rp.WritePatternsJSON(out, named)
		}
		return rp.WritePatternsCSV(out, named)
	case "tsv":
		for _, p := range res.Patterns {
			names := db.PatternNames(p.Items)
			ivs := make([]string, len(p.Intervals))
			for i, iv := range p.Intervals {
				ivs[i] = fmt.Sprintf("%d:%d:%d", iv.Start, iv.End, iv.PS)
			}
			fmt.Fprintf(out, "%s\t%d\t%d\t%s\n",
				strings.Join(names, " "), p.Support, p.Recurrence, strings.Join(ivs, ","))
		}
	case "text":
		for _, p := range res.Patterns {
			fmt.Fprintln(out, p.Format(db.Dict))
		}
	default:
		return fmt.Errorf("unknown format %q (want text, tsv, json or csv)", format)
	}
	return out.Err()
}
