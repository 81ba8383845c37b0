package obs

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"runtime/pprof"
	"testing"
	"time"
)

// TestCaptureCarriesPprofLabels pins the attribution contract at this
// layer: a CPU profile taken while labeled mining work runs carries
// {request_id, phase} on its samples. The label strings land in the
// profile protobuf's string table, so gunzip+Contains is enough to assert
// presence without a profile parser.
func TestCaptureCarriesPprofLabels(t *testing.T) {
	const reqID = "deadbeef-42"
	ctx := WithMineLabels(context.Background(), reqID, "fp-cafe")
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		DoPhase(ctx, PhaseMine, func(context.Context) {
			x := 0.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 1000; i++ {
					x += float64(i % 7)
				}
			}
		})
	}()
	defer func() { close(stop); <-done }()

	// Sampling is statistical (100Hz): retry a few short windows before
	// declaring the labels missing.
	for attempt := 0; attempt < 5; attempt++ {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Skipf("a CPU profile is already running: %v", err)
		}
		time.Sleep(300 * time.Millisecond)
		pprof.StopCPUProfile()
		zr, err := gzip.NewReader(&buf)
		if err != nil {
			t.Fatalf("cpu profile is not gzipped pprof: %v", err)
		}
		proto, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(proto, []byte(LabelRequestID)) &&
			bytes.Contains(proto, []byte(reqID)) &&
			bytes.Contains(proto, []byte(LabelPhase)) &&
			bytes.Contains(proto, []byte("mine")) {
			return // labels present
		}
	}
	t.Fatal("no profile attempt contained the request_id/phase labels")
}
