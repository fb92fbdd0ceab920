package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// workload is one set of inputs the benchmark runs as a closed loop: one
// goroutine issues an op, waits for it, checks its outputs, and issues
// the next, the way a paper reader or a CI job waits for each result.
type workload struct {
	name string
	why  string
	// warmup ops run untimed after set-up, filling caches and lazy state.
	warmup int
	// heapAfterSetup measures live_heap_mb once the instance is set up,
	// before its warm-up, instead of at the end of the window: the
	// workload's state grows with every op by design (a registry keeps
	// what is published to it), so only the set-up state is the same
	// from run to run.
	heapAfterSetup bool
	setup          func(e *env) (runner, error)
	layers         []layerMetric
}

// runner is a set-up workload instance.
type runner interface {
	// op runs one operation, checks its outputs, and names its kind.
	op() (kind string, err error)
	// finish runs the checks that cover the whole window.
	finish() error
	// close stops everything the instance started and waits for it.
	close()
}

// env is what a workload instance receives from the harness.
type env struct {
	seed uint64
	// traced is set for the whole traced run, so set-up attaches obs
	// registries; tr is set only for the timed window.
	traced  bool
	tr      *tracer
	goldens string
}

// setupRuns is how many times a run sets the workload up; setup_s is
// their median and the last instance serves the timed window.
const setupRuns = 9

// keepSpanTrees bounds the raw span trees a traced run writes out.
const keepSpanTrees = 3

// maxErrors bounds the failure messages a result keeps.
const maxErrors = 5

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Traced     bool     `json:"traced"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	GoVersion  string   `json:"go_version"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Correct    bool     `json:"correct"`
	Errors     []string `json:"errors,omitempty"`
	// TailPermille is the percentile rule's pick: the highest percentile
	// with at least ten completed ops beyond it.
	TailPermille int               `json:"tail_permille"`
	SetupSeconds []float64         `json:"setup_samples_s"`
	Metrics      map[string]metric `json:"metrics"`
	// Extra holds the untraced run's op latency and throughput and, where
	// a workload mixes op kinds, each kind's latencies. They are reported
	// but not gated: on a shared machine they move from run to run by more
	// than a useful bound.
	Extra map[string]metric `json:"extra,omitempty"`
	Spans []opSpans         `json:"spans,omitempty"`
}

// endToEnd lists the end-to-end metrics of every workload, in output
// order, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"alloc_mb_per_op", "MB"},
	{"live_heap_mb", "MB"},
}

// ungated lists the untraced run's reported latency and throughput, which
// -compare shows without a verdict and -claim can test.
var ungated = []bound{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
}

// run sets the workload up setupRuns times, then measures it for window.
func run(w *workload, seed uint64, window time.Duration, traced bool, goldens string) (*result, error) {
	res := &result{
		Workload: w.name, Seed: seed, Seconds: window.Seconds(), Traced: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Metrics: map[string]metric{},
	}
	var (
		r      runner
		e      *env
		liveMB float64
		mem    runtime.MemStats
	)
	for i := 0; i < setupRuns; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		e = &env{seed: seed, traced: traced, goldens: goldens}
		start := time.Now()
		var err error
		if r, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		var paused time.Duration
		if w.heapAfterSetup && i == setupRuns-1 {
			p := time.Now()
			liveMB = liveHeapMB(&mem)
			paused = time.Since(p)
		}
		for k := 0; k < w.warmup; k++ {
			if _, err := r.op(); err != nil {
				r.close()
				return nil, fmt.Errorf("%s: warm-up op %d: %w", w.name, k, err)
			}
		}
		res.SetupSeconds = append(res.SetupSeconds, (time.Since(start) - paused).Seconds())
	}
	defer r.close()

	if traced {
		e.tr = newTracer(keepSpanTrees)
	}
	runtime.GC()
	runtime.ReadMemStats(&mem)
	alloc0 := mem.TotalAlloc
	var lat []float64
	byKind := map[string][]float64{}
	start := time.Now()
	for deadline := start.Add(window); time.Now().Before(deadline); {
		e.tr.beginOp()
		t0 := time.Now()
		kind, err := r.op()
		d := time.Since(t0)
		e.tr.endOp(kind, d)
		res.Attempted++
		if err != nil {
			res.Failed++
			if len(res.Errors) < maxErrors {
				res.Errors = append(res.Errors, err.Error())
			}
			continue
		}
		lat = append(lat, ms(d))
		byKind[kind] = append(byKind[kind], ms(d))
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&mem)
	alloc1 := mem.TotalAlloc
	res.Correct = res.Failed == 0
	if err := r.finish(); err != nil {
		res.Correct = false
		res.Errors = append(res.Errors, "window check: "+err.Error())
	}

	sl := sorted(lat)
	res.TailPermille = tailPercentile(len(sl))
	if traced {
		for _, m := range layerCatalog() {
			res.Metrics[m.name] = metric{0, m.unit}
		}
		for _, m := range append(append([]layerMetric(nil), w.layers...), harnessLayers...) {
			res.Metrics[m.name] = metric{m.value(e.tr.ops), m.unit}
		}
		res.Spans = e.tr.forest
		return res, nil
	}
	res.Extra = map[string]metric{
		"op_p50_ms": {percentile(sl, p50), "ms"},
		"op_p90_ms": {percentile(sl, p90), "ms"},
		"ops_per_s": {float64(len(lat)) / elapsed.Seconds(), "1/s"},
	}
	if len(byKind) > 1 {
		kinds := make([]string, 0, len(byKind))
		for k := range byKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			s := sorted(byKind[k])
			res.Extra[k+"_p50_ms"] = metric{percentile(s, p50), "ms"}
			res.Extra[k+"_p90_ms"] = metric{percentile(s, p90), "ms"}
			res.Extra[k+"_ops"] = metric{float64(len(s)), "count"}
		}
	}
	// The latency samples grow with the op count, which follows the
	// machine's speed. They are last used above, so the collections below
	// free them and the live heap is the workload's alone.
	if !w.heapAfterSetup {
		liveMB = liveHeapMB(&mem)
	}
	values := map[string]float64{
		"setup_s":         median(res.SetupSeconds),
		"alloc_mb_per_op": float64(alloc1-alloc0) / 1e6 / float64(max(res.Attempted, 1)),
		"live_heap_mb":    liveMB,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	return res, nil
}

// liveHeapMB is the heap still reachable after full collections. The
// second collection empties the sync.Pool victim caches the first one
// only demotes, which would otherwise count pooled buffers as live.
func liveHeapMB(mem *runtime.MemStats) float64 {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(mem)
	return float64(mem.HeapAlloc) / 1e6
}

// layerCatalog lists every per-layer metric of every workload once, in
// workload order, followed by the harness's own.
func layerCatalog() []layerMetric {
	var all []layerMetric
	for _, w := range workloads() {
		all = append(all, w.layers...)
	}
	var out []layerMetric
	seen := map[string]bool{}
	for _, m := range append(all, harnessLayers...) {
		if !seen[m.name] {
			seen[m.name] = true
			out = append(out, m)
		}
	}
	return out
}
