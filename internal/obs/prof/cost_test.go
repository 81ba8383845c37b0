package prof

import "testing"

func TestReadCostAllocDelta(t *testing.T) {
	before := ReadCost()
	// Large objects: they bypass the per-P span caches whose unflushed
	// remainders make small-allocation deltas approximate.
	sink := make([][]byte, 0, 8)
	for i := 0; i < 8; i++ {
		sink = append(sink, make([]byte, 1<<20))
	}
	after := ReadCost()
	d := after.Sub(before)
	// The counter is span-granular, so demand most of the allocation, not
	// a byte-exact total.
	if d.AllocBytes < 6*(1<<20) {
		t.Fatalf("alloc delta %d, want >= %d", d.AllocBytes, 6*(1<<20))
	}
	_ = sink
}

func TestCostSubClamps(t *testing.T) {
	a := Cost{AllocBytes: 10, CPU: 10}
	b := Cost{AllocBytes: 30, CPU: 5}
	d := a.Sub(b)
	if d.AllocBytes != 0 {
		t.Errorf("AllocBytes delta = %d, want clamped 0", d.AllocBytes)
	}
	if d.CPU != 5 {
		t.Errorf("CPU delta = %v, want 5", d.CPU)
	}
}
