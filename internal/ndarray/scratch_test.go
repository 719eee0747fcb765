package ndarray

import (
	"math"
	"testing"
)

// TestScratchLeaseFromStackShapeAllocatesNothing pins the read path's lease
// idiom: a pool-hit ScratchPlanes lease whose shape lives in a stack buffer
// allocates nothing — neither the array nor the buffer, which must not
// escape through the shape checks' panic messages.
func TestScratchLeaseFromStackShapeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop recycled buffers at random")
	}
	// AllocsPerRun runs on one P, so from its warm-up call on each lease
	// gets the buffer the previous one recycled.
	calls, misses := 0, 0
	allocs := testing.AllocsPerRun(100, func() {
		var shapeBuf [8]int
		shape := append(shapeBuf[:0], 4, 8)
		a, hit := ScratchPlanes(3, shape...)
		if calls++; calls > 1 && !hit {
			misses++
		}
		Recycle(a)
	})
	if misses > 0 {
		t.Fatalf("%d of %d leases right after a Recycle missed the pool", misses, calls-1)
	}
	if allocs != 0 {
		t.Fatalf("pool-hit lease from a stack shape buffer: %v allocs, want 0", allocs)
	}
}

// TestRecyclePoisonsUnderRace: under the race detector Recycle fills a
// pooled array with NaN, so a holder that kept it past Recycle reads NaN
// rather than the numbers of whoever leases it next.
func TestRecyclePoisonsUnderRace(t *testing.T) {
	if !raceEnabled {
		t.Skip("poison mode is on only under the race detector")
	}
	a, _ := Scratch(4, 8)
	stale := a.Data()
	for i := range stale {
		stale[i] = float64(i)
	}
	Recycle(a)
	for i, v := range stale {
		if !math.IsNaN(v) {
			t.Fatalf("cell %d of a recycled array reads %g, want NaN", i, v)
		}
	}
}
