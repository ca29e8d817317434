package plan

import (
	"sync"
	"testing"
	"time"
)

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 || e.Count() != 0 {
		t.Fatalf("cold EWMA: value %v count %d, want zeros", e.Value(), e.Count())
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Fatalf("first observation must seed directly: got %v", e.Value())
	}
	e.Observe(20)
	if e.Value() != 15 {
		t.Fatalf("alpha=0.5 after 10,20: got %v, want 15", e.Value())
	}
	if e.Count() != 2 {
		t.Fatalf("count: got %d, want 2", e.Count())
	}
}

func TestEWMABadAlphaFallsBack(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.5} {
		e := NewEWMA(alpha)
		if e.alpha != DefaultAlpha {
			t.Fatalf("alpha %v: got %v, want DefaultAlpha", alpha, e.alpha)
		}
	}
}

func TestEstimatorColdIsZero(t *testing.T) {
	e := NewEstimator(5, DefaultAlpha)
	if got := e.EstimateQuery(Features{Postings: 1000, Tables: 40}, 4, true); got != 0 {
		t.Fatalf("cold estimate: got %v, want 0", got)
	}
	if e.Calibrated(0) {
		t.Fatal("cold estimator reports calibrated")
	}
	if e.ErrorRate() != 0 {
		t.Fatalf("cold error rate: got %v", e.ErrorRate())
	}
}

// calibration from one synthetic sample must make estimates scale
// linearly with the features.
func TestEstimatorCalibratesAndScales(t *testing.T) {
	e := NewEstimator(5, DefaultAlpha)
	e.Observe(Sample{
		Postings: 100, Tables1: 10, Tables: 20, Alg: 1, Probe2Ran: true,
		Probe1: 100 * time.Microsecond, // 1µs per posting
		Read1:  10 * time.Microsecond,  // 1µs per table1
		Probe2: 15 * time.Microsecond,
		Read2:  5 * time.Microsecond, // probe2+read2: 2µs per table1
		Build:  40 * time.Microsecond,
		Infer:  20 * time.Microsecond,
		Cons:   20 * time.Microsecond, // build 2µs, infer 1µs, cons 1µs per table
	})
	if !e.Calibrated(1) {
		t.Fatal("estimator not calibrated after a full sample")
	}
	// Same shape back: 100·1 + 10·1 + 10·2 + 20·(2+1+1) = 210µs... but
	// EstimateQuery charges read and probe2 per predicted table, so with
	// Tables=20 the exact value is 100 + 20·1 + 20·2 + 20·4 = 240µs.
	got := e.EstimateQuery(Features{Postings: 100, Tables: 20}, 1, true)
	want := 240 * time.Microsecond
	if got != want {
		t.Fatalf("estimate: got %v, want %v", got, want)
	}
	// Doubling every feature doubles the estimate.
	if got2 := e.EstimateQuery(Features{Postings: 200, Tables: 40}, 1, true); got2 != 2*want {
		t.Fatalf("doubled features: got %v, want %v", got2, 2*want)
	}
	// Dropping the second probe drops its term.
	noP2 := e.EstimateQuery(Features{Postings: 100, Tables: 20}, 1, false)
	if noP2 != want-40*time.Microsecond {
		t.Fatalf("no-second-probe estimate: got %v, want %v", noP2, want-40*time.Microsecond)
	}
}

// a perfectly repeatable workload must drive the self-scored relative
// error toward zero, and a distorted one must raise it.
func TestEstimatorErrorRate(t *testing.T) {
	e := NewEstimator(5, 0.5)
	s := Sample{
		Postings: 100, Tables1: 20, Tables: 20, Alg: 0, Probe2Ran: false,
		Probe1: 100 * time.Microsecond,
		Read1:  20 * time.Microsecond,
		Build:  20 * time.Microsecond,
		Infer:  20 * time.Microsecond,
		Cons:   20 * time.Microsecond,
	}
	for i := 0; i < 5; i++ {
		e.Observe(s)
	}
	if err := e.ErrorRate(); err > 1e-9 {
		t.Fatalf("repeatable workload error rate: got %v, want ~0", err)
	}
	// A query that takes twice as long as predicted must register error.
	slow := s
	slow.Infer = 200 * time.Microsecond
	e.Observe(slow)
	if err := e.ErrorRate(); err < 0.1 {
		t.Fatalf("distorted workload error rate: got %v, want > 0.1", err)
	}
}

func TestEstimatorAlgIndexClamps(t *testing.T) {
	e := NewEstimator(2, DefaultAlpha)
	// Out-of-range algorithms share slot 0 instead of panicking.
	e.Observe(Sample{Postings: 1, Tables1: 1, Tables: 1, Alg: 99,
		Probe1: time.Microsecond, Read1: time.Microsecond,
		Build: time.Microsecond, Infer: time.Microsecond, Cons: time.Microsecond})
	if !e.Calibrated(-3) {
		t.Fatal("clamped algorithm slot not calibrated")
	}
	if e.EstimateQuery(Features{Postings: 1, Tables: 1}, 42, false) == 0 {
		t.Fatal("clamped algorithm estimate is cold")
	}
}

func TestEstimatorConcurrentAccess(t *testing.T) {
	e := NewEstimator(5, DefaultAlpha)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e.Observe(Sample{Postings: 10 + i, Tables1: 5, Tables: 10, Alg: w % 5,
					Probe1: time.Microsecond, Read1: time.Microsecond,
					Build: time.Microsecond, Infer: time.Microsecond, Cons: time.Microsecond})
				e.EstimateQuery(Features{Postings: 100, Tables: 10}, w%5, true)
				e.ErrorRate()
			}
		}(w)
	}
	wg.Wait()
}

func TestDrainEstimate(t *testing.T) {
	hold := 2 * time.Second
	cases := []struct {
		occupied, need, capacity int
		want                     time.Duration
	}{
		{0, 1, 4, 2 * time.Second},   // empty server: one wave
		{4, 4, 4, 4 * time.Second},   // full server, full request: two waves
		{16, 4, 4, 10 * time.Second}, // deep queue: five waves
		{3, 0, 4, 2 * time.Second},   // need clamps up to 1
	}
	for _, c := range cases {
		if got := DrainEstimate(c.occupied, c.need, c.capacity, hold); got != c.want {
			t.Errorf("DrainEstimate(%d,%d,%d): got %v, want %v", c.occupied, c.need, c.capacity, got, c.want)
		}
	}
	if got := DrainEstimate(4, 1, 4, 0); got != 0 {
		t.Errorf("cold hold: got %v, want 0", got)
	}
	if got := DrainEstimate(4, 1, 0, hold); got != 0 {
		t.Errorf("zero capacity: got %v, want 0", got)
	}
}
