// Command rpgen generates the evaluation datasets of the paper — the
// Quest-style synthetic T10I4D100K, the Shop-14 clickstream simulation,
// and the Twitter hashtag-stream simulation — in either on-disk format:
// text (default) or the mmap-able v2 layout.
//
// Example:
//
//	rpgen -dataset twitter -scale 0.1 -seed 7 -out twitter.tdb
//	rpgen -dataset shop14 -format mapped -out shop14.tsdbm
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/recurpat/rp/internal/bench"
	"github.com/recurpat/rp/internal/tsdb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rpgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rpgen", flag.ContinueOnError)
	var (
		dataset = fs.String("dataset", "", "dataset to generate: t10i4d100k, shop14 or twitter")
		scale   = fs.Float64("scale", 1.0, "size relative to the paper's dataset")
		seed    = fs.Uint64("seed", 1, "generator seed")
		out     = fs.String("out", "-", "output file ('-' for stdout)")
		events  = fs.Bool("events", false, "also print the planted burst events (twitter only) to stderr")
		format  = fs.String("format", "", "output format: text (default) or mapped (mmap-able v2)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := bench.Load(*dataset, *scale, *seed)
	if err != nil {
		return err
	}
	if *events {
		for _, e := range d.Events {
			fmt.Fprintf(os.Stderr, "event %v windows=%v rate=%.2f\n", e.Tags, e.Windows, e.Rate)
		}
	}
	var w io.Writer = stdout
	// finish flushes and closes the output file; on the write path its
	// error is the caller's only evidence of a short write, so it is
	// checked explicitly rather than dropped in a defer.
	finish := func() error { return nil }
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close() // backstop for early returns; finish() closes and checks on success
		bw := bufio.NewWriter(f)
		w = bw
		finish = func() error {
			if err := bw.Flush(); err != nil {
				return err
			}
			return f.Close()
		}
	}
	var write func(io.Writer, *tsdb.DB) error
	switch *format {
	case "", "text":
		write = tsdb.Write
	case "mapped":
		write = tsdb.WriteMapped
	default:
		return fmt.Errorf("unknown format %q (want text or mapped)", *format)
	}
	if err := write(w, d.DB); err != nil {
		return err
	}
	if err := finish(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "rpgen:", d.Name, tsdb.ComputeStats(d.DB))
	return nil
}
