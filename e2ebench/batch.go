package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"github.com/recurpat/rp/internal/obs"
)

// batchCells builds the cell list of a seed, with reference digests mined
// by core.MineVertical.
func batchCells(seed int64) ([]batchCell, []*input, error) {
	shop, err := makeInput(shop14, seed)
	if err != nil {
		return nil, nil, err
	}
	twitter, err := makeInput(twitterSmall, seed)
	if err != nil {
		return nil, nil, err
	}
	var cells []batchCell
	add := func(in *input, t thresholds) error {
		ref, err := mineReference(in.db, t)
		if err != nil {
			return err
		}
		d := ref.digest(0)
		cells = append(cells, batchCell{
			Name: in.name, File: in.name + ".tdb", Thresholds: t,
			Digest: fmt.Sprintf("%x", d[:]), Patterns: len(ref.patterns),
			text: in.text, want: d,
		})
		return nil
	}
	for _, t := range shopCells {
		if err := add(shop, t); err != nil {
			return nil, nil, err
		}
	}
	if err := add(twitter, twitterCell); err != nil {
		return nil, nil, err
	}
	return cells, []*input{shop, twitter}, nil
}

// worker is a started batch worker process that has loaded its inputs.
type worker struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

// startWorker launches the worker on dir and waits for its "ready".
func startWorker(dir string) (*worker, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-batch-worker", dir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &worker{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	if line, err := w.out.ReadString('\n'); err != nil || line != "ready\n" {
		w.stop()
		return nil, fmt.Errorf("batch worker did not start: %q %v", line, err)
	}
	return w, nil
}

// run tells the worker to make its passes and returns its report.
func (w *worker) run() (*batchReport, error) {
	if _, err := io.WriteString(w.stdin, "run\n"); err != nil {
		w.stop()
		return nil, err
	}
	line, err := w.out.ReadBytes('\n')
	if err != nil {
		w.stop()
		return nil, fmt.Errorf("batch worker: %w", err)
	}
	var rep batchReport
	if err := json.Unmarshal(line, &rep); err != nil {
		w.stop()
		return nil, fmt.Errorf("batch worker report: %w", err)
	}
	w.stdin.Close()
	return &rep, w.cmd.Wait()
}

// stop ends a worker and waits for it; one still waiting for its command
// reads EOF and exits without running.
func (w *worker) stop() {
	w.stdin.Close()
	_ = w.cmd.Wait() // a worker stopped after set-up has no result to report
}

// writeBatchInputs regenerates and serialises the inputs, the set-up work
// a user of the batch path does, and writes them with the manifest.
func writeBatchInputs(dir string, cfg config, cells []batchCell) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range []shape{shop14, twitterSmall} {
		text := transform(s.make(), shapeSeed(cfg.seed, s.name))
		if err := os.WriteFile(filepath.Join(dir, s.name+".tdb"), text, 0o644); err != nil {
			return err
		}
	}
	b, err := json.Marshal(batchManifest{Cells: cells, Seconds: float64(cfg.seconds), Trace: cfg.trace})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), b, 0o644)
}

// runBatch is the batch-table7 workload.
func runBatch(cfg config) (outcome, error) {
	cells, ins, err := batchCells(cfg.seed)
	if err != nil {
		return outcome{}, err
	}
	describe(cfg.log, ins...)
	for _, c := range cells {
		fmt.Fprintf(cfg.log, "cell %-13s %-28s reference %d patterns, digest %s\n", c.Name, c.Thresholds, c.Patterns, c.want)
	}

	// Set-up: generate and serialise the inputs, write them, start the
	// worker and let it load them. Repeated; the last worker is kept.
	var out outcome
	var w *worker
	dir := filepath.Join(cfg.work, "batch")
	for i := 0; i < setupRepeats; i++ {
		t0 := obs.Now()
		if err := writeBatchInputs(dir, cfg, cells); err != nil {
			return outcome{}, err
		}
		if w, err = startWorker(dir); err != nil {
			return outcome{}, err
		}
		out.setups = append(out.setups, float64(obs.Since(t0))/1e9)
		if i < setupRepeats-1 {
			w.stop()
		}
	}
	rep, err := w.run()
	if err != nil {
		return outcome{}, err
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(cfg.log, "FAILED:", e)
	}
	out.attempted, out.failed = rep.Attempted, rep.Failed
	out.peakMB, out.cpuMS, out.loopS = rep.PeakMB, rep.CPUMS, rep.LoopS
	out.opMS = rep.PassMS
	out.e2e = map[string]metric{"batch_pass_s": {median(rep.PassMS) / 1e3, "s"}}
	if cfg.trace {
		if out.layers, err = batchLayers(cfg.log, rep); err != nil {
			return outcome{}, err
		}
	}
	return out, nil
}
