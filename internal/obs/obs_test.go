package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed step on every reading, making every
// duration in the registry a deterministic function of call order.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(0, 0), step: time.Millisecond}
}

func (f *fakeClock) Now() time.Time {
	f.t = f.t.Add(f.step)
	return f.t
}

// drive exercises every metric kind and a two-level span tree.
func drive(r *Registry) {
	r.SetBuckets("solve_seconds", []float64{0.001, 0.01, 0.1})
	root := r.StartSpan("pipeline")
	child := root.StartSpan("build/pepa")
	r.Inc("attempts_total", L("op", "pull"))
	r.Inc("attempts_total", L("op", "pull"))
	r.Inc("attempts_total", L("op", "push"))
	r.Add("bytes_total", 512)
	r.Set("breaker_state", 1)
	r.Observe("solve_seconds", 0.005)
	r.Observe("solve_seconds", 0.05)
	r.Observe("solve_seconds", 5)
	child.End()
	root.End()
}

func TestSnapshotDeterministicUnderFakeClock(t *testing.T) {
	var outs []string
	for i := 0; i < 2; i++ {
		r := NewRegistryAt(newFakeClock().Now)
		drive(r)
		var buf bytes.Buffer
		if err := r.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var prom bytes.Buffer
		if err := r.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.String()+"\n===\n"+prom.String())
	}
	if outs[0] != outs[1] {
		t.Errorf("identical drives produced different snapshots:\n%s\n---\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], `attempts_total{op="pull"}`) {
		t.Errorf("snapshot missing labeled counter:\n%s", outs[0])
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistryAt(newFakeClock().Now)
	r.Inc("c_total")
	r.Add("c_total", 2)
	r.Add("c_total", -5) // negative deltas ignored: counters are monotone
	if got := r.Counter("c_total"); got != 3 {
		t.Errorf("counter = %g, want 3", got)
	}
	r.Set("g", 7)
	r.Set("g", 4)
	if got := r.Gauge("g"); got != 4 {
		t.Errorf("gauge = %g, want 4", got)
	}
	r.SetBuckets("h", []float64{1, 2})
	for _, v := range []float64{0.5, 1.0, 1.5, 3.0} {
		r.Observe("h", v)
	}
	h := r.Snapshot().Histograms["h"]
	if h.Count != 4 || h.Sum != 6 {
		t.Errorf("hist count=%d sum=%g, want 4, 6", h.Count, h.Sum)
	}
	// 0.5 and 1.0 land in le=1 (upper bounds are inclusive), 1.5 in le=2,
	// 3.0 in the overflow bucket.
	want := []uint64{2, 1, 1}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, c, want[i])
		}
	}
}

func TestSpanTreeAndOpenSpans(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistryAt(clk.Now)
	root := r.StartSpan("root")
	a := root.StartSpan("a")
	a.End()
	b := root.StartSpan("b")
	_ = b // never ended: must appear open with a best-effort duration
	root.End()
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "root" {
		t.Fatalf("spans = %+v", snap.Spans)
	}
	kids := snap.Spans[0].Children
	if len(kids) != 2 || kids[0].Name != "a" || kids[1].Name != "b" {
		t.Fatalf("children = %+v", kids)
	}
	if kids[0].Open || !kids[1].Open {
		t.Errorf("open flags wrong: %+v", kids)
	}
	if kids[0].DurationNS != int64(time.Millisecond) {
		t.Errorf("a duration = %d, want %d", kids[0].DurationNS, time.Millisecond)
	}
}

// TestNilRegistryFastPath: the disabled mode must be a total no-op —
// this is the guarantee that lets hot paths stay instrumented
// unconditionally.
func TestNilRegistryFastPath(t *testing.T) {
	var r *Registry
	r.Inc("x")
	r.Add("x", 2)
	r.Set("g", 1)
	r.Observe("h", 0.5)
	r.ObserveDuration("h", time.Second)
	r.SetBuckets("h", []float64{1})
	if r.Counter("x") != 0 || r.Gauge("g") != 0 {
		t.Error("nil registry returned non-zero values")
	}
	s := r.StartSpan("root")
	c := s.StartSpan("child")
	c.End()
	s.End()
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms)+len(snap.Spans) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil exposition = %q, %v", buf.String(), err)
	}
}

// TestConcurrentHammering drives every metric kind from many goroutines;
// run under -race this is the registry's thread-safety proof.
func TestConcurrentHammering(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("root")
	var wg sync.WaitGroup
	const workers, iters = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Inc("c_total", L("w", "x"))
				r.Set("g", float64(i))
				r.Observe("h", float64(i%10)/10)
				sp := root.StartSpan("work")
				sp.End()
			}
		}(w)
	}
	// Snapshot concurrently with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("c_total", L("w", "x")); got != workers*iters {
		t.Errorf("counter = %g, want %d", got, workers*iters)
	}
	snap := r.Snapshot()
	if h := snap.Histograms["h"]; h.Count != workers*iters {
		t.Errorf("hist count = %d, want %d", h.Count, workers*iters)
	}
	if len(snap.Spans[0].Children) != workers*iters {
		t.Errorf("span children = %d, want %d", len(snap.Spans[0].Children), workers*iters)
	}
}

func TestSeriesKeyLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	r.Inc("m_total", L("b", "2"), L("a", "1"))
	r.Inc("m_total", L("a", "1"), L("b", "2"))
	if got := r.Counter("m_total", L("b", "2"), L("a", "1")); got != 2 {
		t.Errorf("label order split the series: %g", got)
	}
	if k := seriesKey("m_total", []Label{L("b", "2"), L("a", "1")}); k != `m_total{a="1",b="2"}` {
		t.Errorf("seriesKey = %s", k)
	}
}

func TestLabelEscaping(t *testing.T) {
	k := seriesKey("m", []Label{L("p", `a"b\c`+"\n")})
	want := `m{p="a\"b\\c\n"}`
	if k != want {
		t.Errorf("seriesKey = %s, want %s", k, want)
	}
}
