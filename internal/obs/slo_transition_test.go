package obs

import (
	"sync"
	"testing"
	"time"
)

// transitionLog collects OnTransition firings.
type transitionLog struct {
	mu    sync.Mutex
	edges []bool
	viols [][]string
}

func (l *transitionLog) fire(degraded bool, violating []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.edges = append(l.edges, degraded)
	l.viols = append(l.viols, violating)
}

func (l *transitionLog) snapshot() []bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]bool(nil), l.edges...)
}

func TestSLOOnTransitionEdges(t *testing.T) {
	now := time.Unix(1000, 0)
	var log transitionLog
	slo := NewSLO(SLOConfig{
		Latency: 10 * time.Millisecond, MinSamples: 1,
		Window:       time.Minute,
		Now:          func() time.Time { return now },
		OnTransition: func(d bool, v []string) { log.fire(d, v) },
	})

	// First evaluation (healthy, no samples) is the initial state — no edge.
	slo.Status()
	if edges := log.snapshot(); len(edges) != 0 {
		t.Fatalf("initial evaluation fired a transition: %v", edges)
	}

	// Go degraded: all observations slow.
	for i := 0; i < 5; i++ {
		slo.Observe("fill", 50*time.Millisecond, false)
	}
	slo.Status()
	slo.Status() // same state: no second fire
	edges := log.snapshot()
	if len(edges) != 1 || !edges[0] {
		t.Fatalf("degraded edge fired %d times (want 1, degraded): %v", len(edges), edges)
	}
	log.mu.Lock()
	viol := log.viols[0]
	log.mu.Unlock()
	if len(viol) != 1 || viol[0] != "fill" {
		t.Fatalf("violating streams = %v, want [fill]", viol)
	}

	// Recover by aging the window out — an age-driven edge must also fire.
	now = now.Add(5 * time.Minute)
	slo.Status()
	edges = log.snapshot()
	if len(edges) != 2 || edges[1] {
		t.Fatalf("recovery edge missing: %v", edges)
	}
}

func TestSLOOnTransitionConcurrentPollsFireOnce(t *testing.T) {
	now := time.Unix(1000, 0)
	var log transitionLog
	slo := NewSLO(SLOConfig{
		Latency: 10 * time.Millisecond, MinSamples: 1,
		Now:          func() time.Time { return now },
		OnTransition: func(d bool, v []string) { log.fire(d, v) },
	})
	slo.Status() // settle the initial healthy state
	for i := 0; i < 5; i++ {
		slo.Observe("fill", time.Second, false)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); slo.Status() }()
	}
	wg.Wait()
	if edges := log.snapshot(); len(edges) != 1 {
		t.Fatalf("concurrent polls fired %d transitions, want 1", len(edges))
	}
}

func TestSLOOnTransitionNilCallback(t *testing.T) {
	slo := NewSLO(SLOConfig{Latency: time.Millisecond, MinSamples: 1})
	slo.Observe("fill", time.Second, false)
	slo.Status() // must not panic without a callback
}
