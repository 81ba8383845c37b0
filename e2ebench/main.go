// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload against the real program, checks every output against a
// reference mined by an independent path, and prints its metrics, the last
// line being one JSON object:
//
//	e2ebench -rpserved <rpserved binary> -work <scratch dir> \
//	    --workload batch-table7|serve-mix|shard-fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; --trace 1 makes a separate traced run that reports the
// per-layer metrics. run.sh builds rpserved and this program from the
// checkout and runs it; README.md describes workloads and metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 3

// config is one run's settings.
type config struct {
	seed     int64
	seconds  int
	trace    bool
	rpserved string    // the rpserved binary
	work     string    // scratch directory of this run
	log      io.Writer // human-readable report
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	setups            []float64 // seconds per set-up
	peakMB            float64   // VmHWM of the processes doing the work
	cpuMS             float64   // their CPU time over the measured loop
	loopS             float64   // wall time of the measured loop
	opMS              []float64 // client-observed latency of each op

	// e2e holds the workload's own figures (batch_pass_s, serve_rps,
	// per-class latencies): printed, and reported with the layers.
	e2e map[string]metric
	// layers holds the per-layer metrics of a traced run.
	layers map[string]metric
}

var workloads = map[string]func(config) (outcome, error){
	"batch-table7": runBatch,
	"serve-mix":    runServeMix,
	"shard-fleet":  runShardFleet,
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == "-batch-worker" {
		if err := batchWorker(os.Args[2], os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "batch-table7, serve-mix or shard-fleet")
	seed := fs.Int64("seed", 1, "workload seed: renames, reorders and shifts every input and orders the request stream")
	seconds := fs.Int("seconds", 20, "length of the measured loop")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	bin := fs.String("rpserved", "", "rpserved binary")
	work := fs.String("work", "", "scratch directory; each run uses and removes a subdirectory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*name]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", *name)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case *seconds < 1:
		return errors.New("-seconds must be positive")
	case *bin == "" || *work == "":
		return errors.New("-rpserved and -work are required")
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, rpserved: *bin, work: dir, log: stdout}
	rule(stdout, fmt.Sprintf("%s seed=%d seconds=%d trace=%d", *name, *seed, *seconds, *trace))
	out, err := fn(cfg)
	if err != nil {
		return fmt.Errorf("%w (logs in %s)", err, dir)
	}
	if out.attempted == 0 || len(out.opMS) == 0 {
		return errors.New("no operation completed")
	}
	printMetrics(stdout, *name+" figures", out.e2e)
	m := perLayerMetrics(out)
	if !cfg.trace {
		m = map[string]metric{
			"setup_s":       {median(out.setups), "s"},
			"peak_rss_mb":   {out.peakMB, "MB"},
			"op_ms_p50":     {median(out.opMS), "ms"},
			"ops_per_s":     {float64(out.attempted) / out.loopS, "1/s"},
			"cpu_ms_per_op": {out.cpuMS / float64(out.attempted), "ms"},
		}
	}
	printMetrics(stdout, "metrics", m)
	fmt.Fprintf(stdout, "ops attempted %d, failed %d; set-ups %.3f s\n", out.attempted, out.failed, out.setups)
	if err := finish(stdout, out.attempted, out.failed, m); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// describe prints each dataset's shape.
func describe(w io.Writer, ins ...*input) {
	for _, in := range ins {
		fmt.Fprintf(w, "dataset %-13s |TDB|=%d items=%d text=%d bytes\n", in.name, in.db.Len(), in.db.Dict.Len(), len(in.text))
	}
}
