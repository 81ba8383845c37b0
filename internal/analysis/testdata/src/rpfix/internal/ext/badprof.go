package ext

// Seeded restriction violation: internal/obs/prof reads process-wide cost
// counters and only internal/serve and cmd/ may import it.

import "example.com/rpfix/internal/obs/prof"

// BadProfileUse reaches into the profiling subsystem from a library
// package: flagged.
func BadProfileUse() int {
	return prof.Sample(1)
}
