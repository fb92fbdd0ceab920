// Command pepa is the native PEPA workbench CLI: it parses a model file,
// derives its state space, and prints steady-state measures, a passage-time
// CDF, or an activity diagram.
//
// Usage:
//
//	pepa <model.pepa>                            steady state + throughput
//	pepa <model.pepa> -cdf <pattern> -tmax 100 -n 50
//	pepa <model.pepa> -dot                       activity diagram (DOT)
//	pepa <model.pepa> -text                      activity diagram (text)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/ctmc"
	"repro/internal/diagram"
	"repro/internal/experiment"
	"repro/internal/export"
	"repro/internal/obs"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
	"repro/internal/pepa/sim"
	"repro/internal/query"
	"repro/internal/sigctx"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pepa:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("pepa", flag.ContinueOnError)
	cdfPattern := fs.String("cdf", "", "compute passage-time CDF to states whose term contains this pattern")
	tmax := fs.Float64("tmax", 100, "CDF horizon")
	n := fs.Int("n", 50, "CDF sample intervals")
	dot := fs.Bool("dot", false, "print the activity diagram in DOT")
	text := fs.Bool("text", false, "print the activity diagram as text")
	maxStates := fs.Int("max-states", 1<<20, "state-space bound")
	aggregate := fs.Bool("aggregate", false, "lump permutations of interchangeable parallel components")
	simulate := fs.Float64("sim", 0, "simulate to this horizon instead of numerical solution")
	simSeed := fs.Uint64("seed", 1, "simulation seed")
	simReps := fs.Int("reps", 1, "simulation replications")
	sweep := fs.String("sweep", "", "rate sweep 'name:lo:hi:n' (with -measure)")
	measure := fs.String("measure", "", "sweep measure: throughput:<action> | utilization:<pattern> | median:<pattern>")
	exportMM := fs.String("export-generator", "", "write the generator matrix (Matrix Market) to this file")
	exportLTS := fs.String("export-lts", "", "write the transition system (CSV) to this file")
	checkProps := fs.String("check", "", "evaluate ';'-separated CSL-style properties, e.g. 'S>=0.9[\"Proc\"]; T>=2[serve]'")
	metricsOut := fs.String("metrics-out", "", "write a JSON solver-metrics snapshot to this file on exit")
	timeout := fs.Duration("timeout", 0, "abort the analysis after this long (0 = no deadline); SIGINT/SIGTERM also cancel, a second signal force-aborts")
	ckPath := fs.String("checkpoint", "", "persist finished simulation replications to this file (crash-safe); with -resume, skip the ones already there")
	resume := fs.Bool("resume", false, "reuse matching replications from -checkpoint instead of starting fresh")

	args := os.Args[1:]
	if len(args) == 0 {
		return fmt.Errorf("usage: pepa <model.pepa> [flags]")
	}
	path := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	ctx, stop := sigctx.WithSignals(context.Background())
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *ckPath != "" && !*resume {
		if err := os.Remove(*ckPath); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	// The registry stays nil (and free) unless a snapshot was requested.
	// The snapshot is written on every exit path, including errors, so a
	// failed solve still leaves its partial solver metrics behind.
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		defer func() {
			f, ferr := os.Create(*metricsOut)
			if ferr != nil {
				fmt.Fprintln(os.Stderr, "pepa: metrics-out:", ferr)
				return
			}
			defer f.Close()
			if werr := reg.Snapshot().WriteJSON(f); werr != nil {
				fmt.Fprintln(os.Stderr, "pepa: metrics-out:", werr)
			}
		}()
	}

	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	m, err := pepa.Parse(string(src))
	if err != nil {
		return err
	}
	check := pepa.Check(m)
	for _, w := range check.Warnings {
		fmt.Fprintln(os.Stderr, "warning:", w)
	}
	if err := check.Err(); err != nil {
		return err
	}
	// Simulation and sweeps do not need (or want) the full state space.
	// A given -sim always simulates, so a horizon the simulator rejects is
	// an error rather than a silent numeric solution.
	simGiven := false
	fs.Visit(func(f *flag.Flag) { simGiven = simGiven || f.Name == "sim" })
	if simGiven {
		ens, err := sim.RunEnsembleCtx(ctx, m, sim.Options{Horizon: *simulate, Seed: *simSeed, Obs: reg, Checkpoint: *ckPath}, *simReps)
		if err != nil {
			return err
		}
		fmt.Printf("simulated %d replication(s) to t=%g (mean %.0f events, %d deadlocked)\n",
			ens.Replications, *simulate, ens.MeanEvents, ens.Deadlocks)
		fmt.Println("mean throughput:")
		for _, a := range ens.Actions() {
			fmt.Printf("  %-16s %.6f\n", a, ens.MeanThroughput[a])
		}
		return nil
	}
	if *sweep != "" {
		return runSweep(ctx, m, *sweep, *measure)
	}
	deriveSpan := reg.StartSpan("derive")
	ss, err := derive.ExploreCtx(ctx, m, derive.Options{MaxStates: *maxStates, Aggregate: *aggregate})
	deriveSpan.End()
	if err != nil {
		return err
	}
	reg.Set("pepa_states", float64(ss.NumStates()))
	reg.Set("pepa_transitions", float64(ss.NumTransitions()))
	fmt.Printf("derived %d states, %d transitions\n", ss.NumStates(), ss.NumTransitions())
	if *exportMM != "" {
		f, err := os.Create(*exportMM)
		if err != nil {
			return err
		}
		if err := export.GeneratorMatrixMarket(f, ctmc.FromStateSpace(ss)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote generator to %s\n", *exportMM)
	}
	if *exportLTS != "" {
		f, err := os.Create(*exportLTS)
		if err != nil {
			return err
		}
		if err := export.TransitionsCSV(f, ss); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote transition system to %s\n", *exportLTS)
	}

	if *checkProps != "" {
		var props []string
		for _, p := range strings.Split(*checkProps, ";") {
			if strings.TrimSpace(p) != "" {
				props = append(props, strings.TrimSpace(p))
			}
		}
		results, err := query.CheckAll(ss, ctmc.FromStateSpace(ss), props)
		if err != nil {
			return err
		}
		allHold := true
		for _, r := range results {
			fmt.Println(r)
			if !r.Holds {
				allHold = false
			}
		}
		if !allHold {
			return fmt.Errorf("%d propert(ies) checked; some do not hold", len(results))
		}
		return nil
	}

	switch {
	case *dot:
		fmt.Print(diagram.DOT(ss, path))
		return nil
	case *text:
		fmt.Print(diagram.Text(ss, path))
		return nil
	case *cdfPattern != "":
		targets := ss.StatesMatching(func(term string) bool {
			return strings.Contains(term, *cdfPattern)
		})
		if len(targets) == 0 {
			return fmt.Errorf("no state matches pattern %q", *cdfPattern)
		}
		chain := ctmc.FromStateSpace(ss)
		chain.Obs = reg
		times := make([]float64, *n+1)
		for i := range times {
			times[i] = *tmax * float64(i) / float64(*n)
		}
		cdfSpan := reg.StartSpan("passage_cdf")
		cdf, err := chain.FirstPassageCDFCtx(ctx, chain.PointMass(0), targets, times, 1e-10)
		cdfSpan.End()
		if err != nil {
			return err
		}
		fmt.Printf("passage-time CDF to %d state(s) matching %q\n", len(targets), *cdfPattern)
		fmt.Println("t\tP(T<=t)")
		for i := range cdf.Times {
			fmt.Printf("%.4f\t%.6f\n", cdf.Times[i], cdf.Probs[i])
		}
		fmt.Printf("median %.4f  mean %.4f\n", cdf.Quantile(0.5), cdf.Mean())
		return nil
	default:
		chain := ctmc.FromStateSpace(ss)
		chain.Obs = reg
		if dl := ss.Deadlocks(); len(dl) > 0 {
			fmt.Printf("model has %d absorbing state(s); steady-state analysis skipped\n", len(dl))
			return nil
		}
		ssSpan := reg.StartSpan("steady_state")
		pi, err := chain.SteadyStateCtx(ctx, ctmc.SteadyStateOptions{})
		ssSpan.End()
		if err != nil {
			return err
		}
		fmt.Println("steady-state distribution:")
		for s, p := range pi {
			fmt.Printf("  %.6f  %s\n", p, ss.States[s])
		}
		fmt.Println("throughput:")
		for _, a := range ss.ActionTypes {
			tp, err := chain.Throughput(pi, a)
			if err != nil {
				return err
			}
			fmt.Printf("  %-16s %.6f\n", a, tp)
		}
		fmt.Println(diagram.ActionSummary(ss))
		return nil
	}
}

// runSweep parses "-sweep name:lo:hi:n" and "-measure kind:arg" and prints
// the swept series as TSV. The sweep stops when ctx (the command's signal
// and -timeout context) is done.
func runSweep(ctx context.Context, m *pepa.Model, sweepSpec, measureSpec string) error {
	parts := strings.Split(sweepSpec, ":")
	if len(parts) != 4 {
		return fmt.Errorf("bad -sweep %q (want name:lo:hi:n)", sweepSpec)
	}
	lo, err1 := strconv.ParseFloat(parts[1], 64)
	hi, err2 := strconv.ParseFloat(parts[2], 64)
	n, err3 := strconv.Atoi(parts[3])
	if err1 != nil || err2 != nil || err3 != nil || n < 2 {
		return fmt.Errorf("bad -sweep %q", sweepSpec)
	}
	kind, arg, ok := strings.Cut(measureSpec, ":")
	if !ok {
		return fmt.Errorf("bad -measure %q (want kind:arg)", measureSpec)
	}
	var meas experiment.Measure
	switch kind {
	case "throughput":
		meas = experiment.Throughput{Action: arg}
	case "utilization":
		meas = experiment.Utilization{Pattern: arg}
	case "median":
		meas = experiment.PassageQuantile{Pattern: arg, Quantile: 0.5}
	default:
		return fmt.Errorf("unknown measure kind %q", kind)
	}
	series, err := experiment.RateSweepCtx(ctx, m, parts[0], experiment.Linspace(lo, hi, n), meas)
	if err != nil {
		return err
	}
	fmt.Print(series.TSV())
	return nil
}
