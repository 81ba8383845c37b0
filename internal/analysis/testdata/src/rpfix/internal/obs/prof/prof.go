// Minimal stand-in for the per-request cost readout: it may import
// the obs substrate (and nothing else internal), and only internal/serve
// and cmd/ may import it.
package prof

import "example.com/rpfix/internal/obs"

// Sample is a trivially valid capture helper leaning on the substrate.
func Sample(n int) int { return obs.Count(n) }
