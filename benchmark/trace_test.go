package main

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []spanRec{
		{Name: "op", Parent: -1, StartNS: 0, EndNS: 100, AllocBytes: 1000},
		{Name: "a", Parent: 0, StartNS: 10, EndNS: 40, AllocBytes: 600},
		{Name: "a.child", Parent: 1, StartNS: 20, EndNS: 30, AllocBytes: 100},
		{Name: "b", Parent: 0, StartNS: 50, EndNS: 60, AllocBytes: 300},
	}
	want := []time.Duration{100 - 30 - 10, 30 - 10, 10, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	wantAlloc := []uint64{100, 500, 100, 300}
	for i, a := range selfAllocs(spans) {
		if a != wantAlloc[i] {
			t.Errorf("self alloc of %s = %d, want %d", spans[i].Name, a, wantAlloc[i])
		}
	}
}

// Children opened on other goroutines may overlap each other or outlive
// their parent; only the union of their intervals inside the parent is
// subtracted.
func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []spanRec{
		{Name: "op", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "x", Parent: 0, StartNS: 30, EndNS: 70},
		{Name: "y", Parent: 0, StartNS: 10, EndNS: 50},
		{Name: "z", Parent: 0, StartNS: 90, EndNS: 130},
	}
	if got := selfTimes(spans)[0]; got != 100-60-10 {
		t.Errorf("root self time = %v, want 30", got)
	}
}

func TestTracerFoldsOpsBySpanName(t *testing.T) {
	tr := newTracer(1)
	for op := 0; op < 2; op++ {
		tr.beginOp()
		outer := tr.begin("layer")
		inner := tr.begin("inner")
		inner.end()
		outer.end()
		again := tr.begin("layer")
		again.end()
		tr.addCounters(map[string]float64{"c": 2})
		tr.addCounters(map[string]float64{"c": 1})
		tr.endOp("kind", time.Millisecond)
	}
	if len(tr.ops) != 2 || len(tr.forest) != 1 {
		t.Fatalf("got %d ops and %d kept trees, want 2 and 1", len(tr.ops), len(tr.forest))
	}
	spans := tr.forest[0].Spans
	wantParents := []int{-1, 0, 1, 0}
	for i, s := range spans {
		if s.Parent != wantParents[i] {
			t.Errorf("span %d (%s) parent = %d, want %d", i, s.Name, s.Parent, wantParents[i])
		}
	}
	op := tr.ops[0]
	self := selfTimes(spans)
	if want := ms(self[1]) + ms(self[3]); op.selfMS["layer"] != want {
		t.Errorf("layer self ms = %g, want both spans' sum %g", op.selfMS["layer"], want)
	}
	if op.counters["c"] != 3 || op.kind != "kind" || op.latencyMS != 1 {
		t.Errorf("op trace = %+v", op)
	}
}

func TestNilTracerIsFree(t *testing.T) {
	var tr *tracer
	tr.beginOp()
	tr.begin("x").end()
	tr.addCounters(map[string]float64{"c": 1})
	tr.endOp("k", time.Second)
	if n := testing.AllocsPerRun(100, func() { tr.begin("x").end() }); n != 0 {
		t.Errorf("untraced span allocates %g times", n)
	}
}

func TestFlattenSumsFamiliesAndHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Inc("hits_total", obs.L("outcome", "a"))
	reg.Add("hits_total", 2, obs.L("outcome", "b"))
	reg.Inc("plain_total")
	reg.Observe("req_seconds", 0.5, obs.L("endpoint", "x"))
	reg.Observe("req_seconds", 0.25, obs.L("endpoint", "y"))
	got := flatten(reg.Snapshot())
	for k, want := range map[string]float64{
		"hits_total": 3, `hits_total{outcome="b"}`: 2, "plain_total": 1,
		"req_seconds_sum": 0.75, "req_seconds_count": 2,
	} {
		if got[k] != want {
			t.Errorf("%s = %g, want %g", k, got[k], want)
		}
	}
	if d := delta(map[string]float64{"a": 5, "b": 1}, map[string]float64{"a": 2, "b": 1}); len(d) != 1 || d["a"] != 3 {
		t.Errorf("delta = %v", d)
	}
}
