//go:build !unix

package prof

import "time"

// processCPU is unavailable off unix; cost deltas report zero CPU there
// (alloc bytes still work — they come from runtime.ReadMemStats).
func processCPU() time.Duration { return 0 }
