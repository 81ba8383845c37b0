package main

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"github.com/recurpat/rp/internal/obs"
)

// batchManifest is the worker's input, written by the parent.
type batchManifest struct {
	Cells   []batchCell `json:"cells"`
	Seconds float64     `json:"seconds"`
	Trace   bool        `json:"trace"`
}

// batchReport is the worker's summary, its last line of output.
type batchReport struct {
	LoopS        float64      `json:"loopS"`
	PassMS       []float64    `json:"passMS"`       // untraced passes
	TracedPassMS []float64    `json:"tracedPassMS"` // traced passes
	Attempted    int          `json:"attempted"`
	Failed       int          `json:"failed"`
	Errors       []string     `json:"errors,omitempty"`
	PeakMB       float64      `json:"peakMB"`
	CPUMS        float64      `json:"cpuMS"`
	Layers       []passLayers `json:"layers"` // one per traced pass
}

// pass runs every cell once and records the pass in rep.
func (rep *batchReport) pass(cells []batchCell, traced bool) {
	var pl passLayers
	var passNS int64
	failed := false
	for i := range cells {
		c := &cells[i]
		o := runCell(c, traced)
		passNS += o.parse + o.mine + o.convert + o.encode
		if o.err != nil {
			failed = true
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s %s: %v", c.Name, c.Thresholds, o.err))
		}
		pl.add(c, o)
	}
	rep.Attempted++
	if failed {
		rep.Failed++
	}
	if traced {
		rep.TracedPassMS = append(rep.TracedPassMS, float64(passNS)/1e6)
		rep.Layers = append(rep.Layers, pl)
	} else {
		rep.PassMS = append(rep.PassMS, float64(passNS)/1e6)
	}
}

// batchWorker is the child process of batch-table7: it loads the cells'
// text bytes, reports ready, and on "run" makes passes for the manifest's
// duration, alternating untraced and traced passes when tracing. Running
// the work in its own process makes its VmHWM the work's peak memory.
func batchWorker(dir string, stdin io.Reader, stdout io.Writer) error {
	mb, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return err
	}
	var m batchManifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return err
	}
	for i := range m.Cells {
		c := &m.Cells[i]
		if c.text, err = os.ReadFile(filepath.Join(dir, c.File)); err != nil {
			return err
		}
		if c.want, err = parseDigest(c.Digest); err != nil {
			return err
		}
	}
	fmt.Fprintln(stdout, "ready")
	if cmd, _ := bufio.NewReader(stdin).ReadString('\n'); cmd != "run\n" {
		return nil // stopped after set-up
	}

	var ru0, ru1 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return err
	}
	minPasses := 1
	if m.Trace {
		minPasses = 2
	}
	var rep batchReport
	loop := obs.Now()
	for pass := 0; pass < minPasses || float64(obs.Since(loop))/1e9 < m.Seconds; pass++ {
		rep.pass(m.Cells, m.Trace && pass%2 == 1)
	}
	rep.LoopS = float64(obs.Since(loop)) / 1e9
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return err
	}
	rep.CPUMS = float64(ru1.Utime.Nano()+ru1.Stime.Nano()-ru0.Utime.Nano()-ru0.Stime.Nano()) / 1e6
	if rep.PeakMB, _, err = procStatus(os.Getpid()); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(rep)
}

func parseDigest(s string) (digest, error) {
	var d digest
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(d) {
		return d, fmt.Errorf("bad digest %q", s)
	}
	copy(d[:], b)
	return d, nil
}
