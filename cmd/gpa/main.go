// Command gpa is the native GPEPA fluid analyser (the GPAnalyser
// stand-in): mean-field ODE analysis and exact stochastic simulation of
// grouped PEPA models.
//
// Usage:
//
//	gpa <model.gpepa> -analysis fluid -horizon 50 -n 100
//	gpa <model.gpepa> -analysis sim -horizon 50 -n 100 -seed 1 -reps 20
//	gpa <model.gpepa> -analysis sweep -sweep-group Servers -sweep-component Server \
//	    -sweep-counts 5,10,20,40 -horizon 300 -sweep-action request
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/gpepa"
	"repro/internal/sigctx"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gpa:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("gpa", flag.ContinueOnError)
	analysis := fs.String("analysis", "fluid", "fluid or sim")
	horizon := fs.Float64("horizon", 50, "horizon")
	n := fs.Int("n", 100, "output intervals")
	seed := fs.Uint64("seed", 1, "simulation seed")
	reps := fs.Int("reps", 1, "simulation replications")
	sweepGroup := fs.String("sweep-group", "", "sweep: group label")
	sweepComponent := fs.String("sweep-component", "", "sweep: component name")
	sweepCounts := fs.String("sweep-counts", "", "sweep: comma-separated populations")
	sweepAction := fs.String("sweep-action", "", "sweep: action whose throughput is measured")
	timeout := fs.Duration("timeout", 0, "abort the analysis after this long (0 = no deadline); SIGINT/SIGTERM also cancel, a second signal force-aborts")
	ckPath := fs.String("checkpoint", "", "persist finished simulation replications to this file (crash-safe); with -resume, skip the ones already there")
	resume := fs.Bool("resume", false, "reuse matching replications from -checkpoint instead of starting fresh")

	args := os.Args[1:]
	if len(args) == 0 {
		return fmt.Errorf("usage: gpa <model.gpepa> [flags]")
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
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	m, err := gpepa.Parse(string(src))
	if err != nil {
		return err
	}
	if *analysis == "sweep" {
		if *sweepGroup == "" || *sweepComponent == "" || *sweepCounts == "" || *sweepAction == "" {
			return fmt.Errorf("sweep needs -sweep-group, -sweep-component, -sweep-counts, and -sweep-action")
		}
		var counts []float64
		for _, c := range strings.Split(*sweepCounts, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(c), 64)
			if err != nil {
				return fmt.Errorf("bad count %q", c)
			}
			counts = append(counts, v)
		}
		points, err := gpepa.ScalabilitySweepCtx(ctx, m, *sweepGroup, *sweepComponent, counts, *horizon, *sweepAction)
		if err != nil {
			return err
		}
		fmt.Printf("count\tthroughput(%s)\n", *sweepAction)
		for _, p := range points {
			fmt.Printf("%g\t%.6f\n", p.Count, p.Throughput)
		}
		if knee := gpepa.Saturation(points, 0.01); knee >= 0 {
			fmt.Printf("saturation at count %g\n", points[knee].Count)
		}
		return nil
	}
	sys, err := gpepa.Compile(m)
	if err != nil {
		return err
	}
	fmt.Printf("GPEPA model: %d groups, %d local states, actions %v\n",
		len(m.Groups()), len(sys.Vars), sys.Actions)
	header := func() {
		fmt.Print("t")
		for _, v := range sys.Vars {
			fmt.Printf("\t%s:%s", v.Group, v.State)
		}
		fmt.Println()
	}
	switch *analysis {
	case "fluid":
		res, err := sys.SolveCtx(ctx, *horizon, *n, gpepa.SolveOptions{})
		if err != nil {
			return err
		}
		header()
		for k := range res.Times {
			fmt.Printf("%.4f", res.Times[k])
			for i := range sys.Vars {
				fmt.Printf("\t%.6f", res.X[k][i])
			}
			fmt.Println()
		}
		fmt.Println("action throughput at horizon:")
		final := res.Final()
		for _, a := range sys.Actions {
			fmt.Printf("  %-16s %.6f\n", a, sys.ActionThroughput(a, final))
		}
	case "sim":
		var res *gpepa.SimResult
		if *reps > 1 {
			res, err = sys.MeanOfSimulationsCtx(ctx, *horizon, *n, *reps, *seed, *ckPath)
		} else {
			res, err = sys.SimulateCtx(ctx, *horizon, *n, *seed)
		}
		if err != nil {
			return err
		}
		fmt.Printf("stochastic simulation: %d jumps\n", res.Jumps)
		header()
		for k := range res.Times {
			fmt.Printf("%.4f", res.Times[k])
			for i := range sys.Vars {
				fmt.Printf("\t%.4f", res.X[k][i])
			}
			fmt.Println()
		}
	default:
		return fmt.Errorf("unknown analysis %q", *analysis)
	}
	return nil
}
