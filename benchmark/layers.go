package main

// layerMetric is one per-layer metric of the traced run, computed from
// the window's op traces. Time metrics are the per-op median of self
// time, counts are per-op means, and ratios are taken over the whole
// window. A workload that never calls a layer reports its metrics as 0.
type layerMetric struct {
	name, unit string
	value      func(ops []opTrace) float64
}

// ofKind keeps the ops of one kind ("" keeps all).
func ofKind(ops []opTrace, kind string) []opTrace {
	if kind == "" {
		return ops
	}
	var out []opTrace
	for _, op := range ops {
		if op.kind == kind {
			out = append(out, op)
		}
	}
	return out
}

// medianOrZero is the median of xs, or 0 for no samples.
func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// selfMS is the per-op median self time of a span, over the ops of kind
// that made the call.
func selfMS(spanName, kind string) func([]opTrace) float64 {
	return func(ops []opTrace) float64 {
		var xs []float64
		for _, op := range ofKind(ops, kind) {
			if v, ok := op.selfMS[spanName]; ok {
				xs = append(xs, v)
			}
		}
		return medianOrZero(xs)
	}
}

// selfAllocMB is the per-op median self allocation of a span, in MB.
func selfAllocMB(spanName, kind string) func([]opTrace) float64 {
	return func(ops []opTrace) float64 {
		var xs []float64
		for _, op := range ofKind(ops, kind) {
			if v, ok := op.selfAlloc[spanName]; ok {
				xs = append(xs, v/1e6)
			}
		}
		return medianOrZero(xs)
	}
}

// counterMean is the per-op mean of a program counter times scale, over
// the ops of kind.
func counterMean(key, kind string, scale float64) func([]opTrace) float64 {
	return func(ops []opTrace) float64 {
		ops = ofKind(ops, kind)
		if len(ops) == 0 {
			return 0
		}
		var sum float64
		for _, op := range ops {
			sum += op.counters[key]
		}
		return sum / float64(len(ops)) * scale
	}
}

// ratio is Σnum / Σden over the window's ops of kind, with each side the
// sum of its counter keys; 0 when nothing was counted.
func ratio(kind string, num, den []string) func([]opTrace) float64 {
	return func(ops []opTrace) float64 {
		var n, d float64
		for _, op := range ofKind(ops, kind) {
			for _, k := range num {
				n += op.counters[k]
			}
			for _, k := range den {
				d += op.counters[k]
			}
		}
		if d == 0 {
			return 0
		}
		return n / d
	}
}

// latencyPct is a percentile of the traced op latency over ops of kind.
func latencyPct(kind string, pm int) func([]opTrace) float64 {
	return func(ops []opTrace) float64 {
		var xs []float64
		for _, op := range ofKind(ops, kind) {
			xs = append(xs, op.latencyMS)
		}
		if len(xs) == 0 {
			return 0
		}
		return percentile(sorted(xs), pm)
	}
}

// harnessLayers are reported on every workload: the harness's own self
// time (the part of an op no layer span covers), its share of the traced
// op median, and the traced op latency. The traced op median minus the
// untraced run's op_p50_ms is the tracing overhead.
var harnessLayers = []layerMetric{
	{"harness.unattributed_ms", "ms", selfMS(rootSpan, "")},
	{"harness.unattributed_share", "ratio", func(ops []opTrace) float64 {
		p := latencyPct("", p50)(ops)
		if p == 0 {
			return 0
		}
		return selfMS(rootSpan, "")(ops) / p
	}},
	{"trace.op_p50_ms", "ms", latencyPct("", p50)},
	{"trace.op_p90_ms", "ms", latencyPct("", p90)},
}

// Counter keys shared by several workloads, as flatten spells them.
const (
	kernelBytesKey = "bench_kernel_computed_bytes"
	replayedKey    = `runtime_build_stages_total{outcome="replayed"}`
	stagesKey      = "runtime_build_stages_total"
)

// hubBytesPushed and hubBytesPulled count both transfer protocols: the
// monolithic push/pull the paper pass uses and the layered transfers of
// the cluster.
var (
	hubBytesPushed = []string{"hub_client_bytes_pushed_total", "hub_client_layer_bytes_pushed_total"}
	hubBytesPulled = []string{"hub_client_bytes_pulled_total", "hub_client_layer_bytes_pulled_total"}
)

// sumMean is the per-op mean of the sum of several counters.
func sumMean(keys []string, kind string) func([]opTrace) float64 {
	return func(ops []opTrace) float64 {
		var total float64
		for _, k := range keys {
			total += counterMean(k, kind, 1)(ops)
		}
		return total
	}
}

// serverBusyMS is the per-op mean time the hub servers spent handling
// requests, summed from hub_server_request_seconds.
func serverBusyMS(kind string) func([]opTrace) float64 {
	return counterMean("hub_server_request_seconds_sum", kind, 1000)
}

// stageReplayRatio is the share of build stages served from the stage
// cache over the window.
func stageReplayRatio(kind string) func([]opTrace) float64 {
	return ratio(kind, []string{replayedKey}, []string{stagesKey})
}
