package main

import (
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// tracer records a span around every call the harness makes into a
// layer's public function during a traced run, one tree per op. A
// workload is a closed loop on one goroutine, so the harness's own spans
// nest as a stack. The program's internal spans stay in the obs
// registries the workloads attach; only their counters are read here.
//
// A nil *tracer is the untraced mode: every method is a no-op, so the
// untraced run pays one nil check per layer call.
type tracer struct {
	origin time.Time
	// spans are the current op's spans in start order; spans[0] is the
	// op itself.
	spans []spanRec
	stack []int
	// counters accumulates the program's metric deltas for the current op.
	counters map[string]float64
	ops      []opTrace
	// forest keeps the raw span trees of the first keep ops for output.
	forest []opSpans
	keep   int
	sample []metrics.Sample
}

// spanRec is one recorded span. Parent indexes the op's span list; the op
// root has parent -1.
type spanRec struct {
	Name       string `json:"name"`
	Parent     int    `json:"parent"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	allocStart uint64
}

// opSpans is one op's raw span list as written to the trace output.
type opSpans struct {
	Op    int       `json:"op"`
	Kind  string    `json:"kind"`
	Spans []spanRec `json:"spans"`
}

// opTrace is what a finished op contributes to the per-layer table: self
// time and self allocation per span name (summed over the op's spans of
// that name) and the program counters the op moved.
type opTrace struct {
	kind      string
	latencyMS float64
	selfMS    map[string]float64
	selfAlloc map[string]float64 // bytes
	counters  map[string]float64
}

// rootSpan names the op span; its self time is the harness's own,
// unattributed to any layer.
const rootSpan = "op"

func newTracer(keep int) *tracer {
	return &tracer{
		origin: time.Now(),
		keep:   keep,
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// allocated reads the cumulative heap allocation without stopping the
// world (runtime.ReadMemStats would, once per span).
func (t *tracer) allocated() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

type span struct {
	t   *tracer
	idx int
}

// begin opens a span named after the layer call it wraps.
func (t *tracer) begin(name string) *span {
	if t == nil {
		return nil
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, spanRec{
		Name: name, Parent: parent,
		StartNS:    time.Since(t.origin).Nanoseconds(),
		allocStart: t.allocated(),
	})
	idx := len(t.spans) - 1
	t.stack = append(t.stack, idx)
	return &span{t: t, idx: idx}
}

// end closes the span. Spans close in stack order.
func (s *span) end() {
	if s == nil {
		return
	}
	t := s.t
	rec := &t.spans[s.idx]
	rec.EndNS = time.Since(t.origin).Nanoseconds()
	if a := t.allocated(); a > rec.allocStart {
		rec.AllocBytes = a - rec.allocStart
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// beginOp starts a fresh span tree for the next op.
func (t *tracer) beginOp() {
	if t == nil {
		return
	}
	t.spans = t.spans[:0]
	t.stack = t.stack[:0]
	t.counters = map[string]float64{}
	t.begin(rootSpan)
}

// addCounters adds the program's metric deltas for the current op.
func (t *tracer) addCounters(c map[string]float64) {
	if t == nil {
		return
	}
	for k, v := range c {
		t.counters[k] += v
	}
}

// endOp closes the op span and folds the op's tree into its per-name
// self times.
func (t *tracer) endOp(kind string, latency time.Duration) {
	if t == nil {
		return
	}
	(&span{t: t, idx: 0}).end()
	self := selfTimes(t.spans)
	selfAlloc := selfAllocs(t.spans)
	op := opTrace{
		kind: kind, latencyMS: ms(latency),
		selfMS: map[string]float64{}, selfAlloc: map[string]float64{},
		counters: t.counters,
	}
	for i, rec := range t.spans {
		op.selfMS[rec.Name] += ms(self[i])
		op.selfAlloc[rec.Name] += float64(selfAlloc[i])
	}
	if len(t.forest) < t.keep {
		t.forest = append(t.forest, opSpans{Op: len(t.ops), Kind: kind, Spans: append([]spanRec(nil), t.spans...)})
	}
	t.ops = append(t.ops, op)
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Children may overlap (spans opened on
// other goroutines), so their intervals are merged before subtracting.
func selfTimes(spans []spanRec) []time.Duration {
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = time.Duration(s.EndNS - s.StartNS - covered(s.StartNS, s.EndNS, children[i]))
	}
	return out
}

// covered measures the union of intervals clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfAllocs returns each span's allocation minus its direct children's.
func selfAllocs(spans []spanRec) []uint64 {
	child := make([]uint64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.AllocBytes
		}
	}
	out := make([]uint64, len(spans))
	for i, s := range spans {
		if s.AllocBytes > child[i] {
			out[i] = s.AllocBytes - child[i]
		}
	}
	return out
}

// flatten sums an obs snapshot into a flat map: every counter series under
// its full key and under its family name, and every histogram's sum and
// count under "<family>_sum" and "<family>_count".
func flatten(snap *obs.Snapshot) map[string]float64 {
	out := map[string]float64{}
	for k, v := range snap.Counters {
		out[k] += v
		if fam, _, ok := strings.Cut(k, "{"); ok {
			out[fam] += v
		}
	}
	for k, h := range snap.Histograms {
		fam, _, _ := strings.Cut(k, "{")
		out[fam+"_sum"] += h.Sum
		out[fam+"_count"] += float64(h.Count)
	}
	return out
}

// delta returns cur minus prev, key by key.
func delta(cur, prev map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(cur))
	for k, v := range cur {
		if d := v - prev[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
