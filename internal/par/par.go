package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls f(i) for every i in [0, n) on up to GOMAXPROCS goroutines and
// returns once every call has returned. With one processor, or n < 2, it
// runs the calls in order on the caller's goroutine.
func For(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers < 2 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}
