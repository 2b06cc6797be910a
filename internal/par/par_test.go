package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForCallsEveryIndexOnce checks that every index in [0, n) is visited
// exactly once, for sizes around the worker count and at one and several
// processors.
func TestForCallsEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 3, 4, 5, 17, 1000} {
			hits := make([]atomic.Int32, n)
			For(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d: index %d called %d times", procs, n, i, got)
				}
			}
		}
	}
}

// TestForSequentialAtOneProc pins the single-processor path: the calls run
// in index order on the caller's goroutine.
func TestForSequentialAtOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var order []int
	For(5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("call %d got index %d, want in-order calls: %v", i, got, order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("%d calls, want 5", len(order))
	}
}
