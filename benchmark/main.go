// Command benchmark is the repository's end-to-end benchmark. It drives
// four workloads — a whole paper pass, one cold exact solve, a study of
// same-structure solves, and a replicated hub's publish/pull traffic —
// each as a closed loop on one goroutine, checks every op's output, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root (benchmark/run.sh builds and runs it):
//
//	benchmark -workload solve -seed 1 -seconds 20 -trace 0
//	benchmark -workload all -seed 1 -out run.json
//	benchmark -workload sweep -trace 1 -out trace.json
//	benchmark -compare A1.json A2.json -- B1.json B2.json
//
// -trace 1 re-runs the workload with a span around every call the harness
// makes into a layer and obs registries attached where the program
// accepts them, and reports the per-layer metrics instead of the
// end-to-end ones. See README.md for the metric catalog.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// workloads lists every workload in the order -workload all runs them.
func workloads() []*workload {
	return []*workload{paperWorkload, solveWorkload, sweepWorkload, hubWorkload}
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper, solve, sweep, hub, or all (each in its own process)")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of the timed window, in seconds")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics; 1 runs traced and reports the per-layer metrics")
	out := fs.String("out", "", "also write the full results, as a JSON list, to this file")
	goldens := fs.String("goldens", filepath.Join("testdata", "goldens"), "the repository's golden files, which the paper workload must reproduce")
	compare := fs.Bool("compare", false, "compare result files instead of running: -compare A.json... -- B.json...")
	claim := fs.String("claim", "", "with -compare, also test a claimed gain on metric@workload by the pair rule")
	bench := fs.String("benchmark", "BENCHMARK.json", "benchmark description whose end-to-end bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), *bench, *claim, stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *goldens, *trace == 1, *out, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want paper, solve, sweep, hub, or all)\n", *name)
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	res, err := run(w, *seed, window, *trace == 1, *goldens)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printResult(stdout, res)
	if *out != "" {
		if err := writeResults(*out, []*result{res}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return printSummary(stdout, stderr, summary{res.Correct, res.Attempted, res.Failed, res.Metrics})
}

// printResult writes a run's human-readable report.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s  seed %d  window %gs  traced %v  GOMAXPROCS %d (%d CPUs)  %s\n",
		res.Workload, res.Seed, res.Seconds, res.Traced, res.GOMAXPROCS, res.NumCPU, res.GoVersion)
	fmt.Fprintf(w, "ops attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	if res.TailPermille < p90 {
		fmt.Fprintf(w, "  warning: %d ops leave fewer than %d beyond p90; the highest percentile they support is p%g\n",
			res.Attempted, minBeyond, float64(res.TailPermille)/10)
	}
	printMetrics(w, res.Metrics)
	if len(res.Extra) > 0 {
		fmt.Fprintln(w, "reported, not gated (they do not repeat within a useful bound on a shared machine):")
		printMetrics(w, res.Extra)
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// printSummary writes the last line of standard output.
func printSummary(stdout, stderr io.Writer, s summary) int {
	b, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func writeResults(path string, results []*result) error {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) ([]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// runAll runs every workload in its own process, so no workload inherits
// another's heap or caches. With tracing it runs each workload untraced
// and then traced, and reports the tracing overhead.
func runAll(seed uint64, seconds float64, goldens string, traced bool, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "benchmark-all-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	modes := []int{0}
	if traced {
		modes = []int{0, 1}
	}
	var results []*result
	total := summary{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads() {
		var untraced *result
		for _, mode := range modes {
			part := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.name, mode))
			res, err := runChild(self, part, stdout, stderr,
				"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(mode), "-goldens", goldens)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: workload %s: %v\n", w.name, err)
				return 1
			}
			results = append(results, res)
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for k, v := range res.Metrics {
				total.Metrics[w.name+"."+k] = v
			}
			if mode == 0 {
				untraced = res
				continue
			}
			base := untraced.Extra["op_p50_ms"].Value
			over := res.Metrics["trace.op_p50_ms"].Value - base
			fmt.Fprintf(stdout, "tracing overhead on %s: %+.4g ms per op (%+.1f%% of op_p50_ms)\n", w.name, over, 100*over/base)
		}
	}
	if out != "" {
		if err := writeResults(out, results); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return printSummary(stdout, stderr, total)
}

// runChild runs one workload in a child process and reads back the result
// it writes to part. The child's report passes through; its summary line
// is held back, since the parent prints one for the whole run.
func runChild(self, part string, stdout, stderr io.Writer, args ...string) (*result, error) {
	cmd := exec.Command(self, append(args, "-out", part)...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	runErr := cmd.Run()
	report := strings.TrimRight(buf.String(), "\n")
	if i := strings.LastIndexByte(report, '\n'); i >= 0 && strings.HasPrefix(report[i+1:], "{") {
		report = report[:i]
	}
	fmt.Fprintln(stdout, report)
	if runErr != nil {
		return nil, runErr
	}
	rs, err := readResults(part)
	if err != nil {
		return nil, err
	}
	if len(rs) != 1 {
		return nil, fmt.Errorf("%s holds %d results, want 1", part, len(rs))
	}
	return rs[0], nil
}
