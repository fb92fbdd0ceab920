// Package apps implements the containerized applications — the PEPA
// solver, the Bio-PEPA solver, the GPA fluid analyser, and the future-work
// model checker — as runtime.App functions. Each app reads a model file from the
// filesystem it runs against (a container image clone or a host root) and
// prints a deterministic textual report, so native and containerized runs
// can be compared byte for byte.
package apps

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/biopepa"
	"repro/internal/ctmc"
	"repro/internal/gpepa"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/vfs"
)

// App names as registered with the engine.
const (
	PEPAApp    = "pepa-solver"
	BioPEPAApp = "biopepa-solver"
	GPAApp     = "gpa"
)

// RegisterAll installs all applications into an engine: the three tools
// the paper containerizes plus the future-work model checker.
func RegisterAll(e *runtime.Engine) {
	e.RegisterApp(PEPAApp, PEPASolver)
	e.RegisterApp(BioPEPAApp, BioPEPASolver)
	e.RegisterApp(GPAApp, GPAnalyser)
	e.RegisterApp(MCApp, func(args []string, fs *vfs.FS, out *bytes.Buffer) error {
		return ModelChecker(args, fs, out)
	})
}

// PEPASolver is the PEPA workbench CLI:
//
//	pepa-solver <model-file>                          — derive + steady state
//	pepa-solver <model-file> cdf <pattern> <tmax> <n> — finishing-time CDF to
//	    states whose canonical syntax contains <pattern>
//	pepa-solver <model-file> check <property>...      — evaluate CSL-style
//	    properties (see internal/query)
func PEPASolver(args []string, fs *vfs.FS, out *bytes.Buffer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: pepa-solver <model-file> [cdf <pattern> <tmax> <n>]")
	}
	src, err := fs.ReadFile(args[0])
	if err != nil {
		return err
	}
	m, err := pepa.Parse(string(src))
	if err != nil {
		return err
	}
	if res := pepa.Check(m); res.Err() != nil {
		return res.Err()
	}
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "PEPA model: %d states, %d transitions\n", ss.NumStates(), ss.NumTransitions())
	chain := ctmc.FromStateSpace(ss)

	if len(args) >= 2 && args[1] == "check" {
		if len(args) < 3 {
			return fmt.Errorf("usage: pepa-solver <model-file> check <property>...")
		}
		results, err := query.CheckAll(ss, chain, args[2:])
		if err != nil {
			return err
		}
		for _, r := range results {
			fmt.Fprintln(out, r)
		}
		return nil
	}

	if len(args) >= 2 && args[1] == "cdf" {
		if len(args) != 5 {
			return fmt.Errorf("usage: pepa-solver <model-file> cdf <pattern> <tmax> <n>")
		}
		pattern := args[2]
		tmax, err := strconv.ParseFloat(args[3], 64)
		if err != nil {
			return fmt.Errorf("bad tmax %q", args[3])
		}
		n, err := strconv.Atoi(args[4])
		if err != nil || n < 1 {
			return fmt.Errorf("bad sample count %q", args[4])
		}
		targets := ss.StatesMatching(func(term string) bool {
			return bytes.Contains([]byte(term), []byte(pattern))
		})
		if len(targets) == 0 {
			return fmt.Errorf("no state matches pattern %q", pattern)
		}
		times := make([]float64, n+1)
		for i := range times {
			times[i] = tmax * float64(i) / float64(n)
		}
		cdf, err := chain.FirstPassageCDF(chain.PointMass(0), targets, times, 1e-10)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "passage-time CDF to %d state(s) matching %q\n", len(targets), pattern)
		fmt.Fprintf(out, "t\tP(T<=t)\n")
		for i := range cdf.Times {
			fmt.Fprintf(out, "%.4f\t%.6f\n", cdf.Times[i], cdf.Probs[i])
		}
		return nil
	}

	pi, err := chain.SteadyState(ctmc.SteadyStateOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "steady-state distribution:\n")
	for s, p := range pi {
		fmt.Fprintf(out, "  %.6f  %s\n", p, ss.States[s])
	}
	fmt.Fprintf(out, "throughput:\n")
	for _, a := range ss.ActionTypes {
		tp, err := chain.Throughput(pi, a)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  %s\t%.6f\n", a, tp)
	}
	return nil
}

// BioPEPASolver is the Bio-PEPA CLI:
//
//	biopepa-solver <model-file> ode <horizon> <n>
//	biopepa-solver <model-file> ssa <horizon> <n> <seed>
func BioPEPASolver(args []string, fs *vfs.FS, out *bytes.Buffer) error {
	if len(args) < 4 {
		return fmt.Errorf("usage: biopepa-solver <model-file> ode|ssa <horizon> <n> [seed]")
	}
	src, err := fs.ReadFile(args[0])
	if err != nil {
		return err
	}
	m, err := biopepa.Parse(string(src))
	if err != nil {
		return err
	}
	horizon, err := strconv.ParseFloat(args[2], 64)
	if err != nil {
		return fmt.Errorf("bad horizon %q", args[2])
	}
	n, err := strconv.Atoi(args[3])
	if err != nil || n < 1 {
		return fmt.Errorf("bad sample count %q", args[3])
	}
	header := func() {
		fmt.Fprintf(out, "t")
		for _, sp := range m.Species {
			fmt.Fprintf(out, "\t%s", sp.Name)
		}
		fmt.Fprintln(out)
	}
	switch args[1] {
	case "ode":
		res, err := m.SolveODE(horizon, n)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Bio-PEPA ODE analysis (%d species, horizon %g)\n", len(m.Species), horizon)
		header()
		for k := range res.Times {
			fmt.Fprintf(out, "%.4f", res.Times[k])
			for i := range m.Species {
				fmt.Fprintf(out, "\t%.6f", res.X[k][i])
			}
			fmt.Fprintln(out)
		}
	case "ssa":
		seed := uint64(1)
		if len(args) >= 5 {
			s, err := strconv.ParseUint(args[4], 10, 64)
			if err != nil {
				return fmt.Errorf("bad seed %q", args[4])
			}
			seed = s
		}
		res, err := m.SimulateSSA(horizon, n, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Bio-PEPA SSA (seed %d, %d reactions fired)\n", seed, res.Jumps)
		header()
		for k := range res.Times {
			fmt.Fprintf(out, "%.4f", res.Times[k])
			for i := range m.Species {
				fmt.Fprintf(out, "\t%.0f", res.X[k][i])
			}
			fmt.Fprintln(out)
		}
	default:
		return fmt.Errorf("unknown analysis %q (want ode or ssa)", args[1])
	}
	return nil
}

// GPAnalyser is the GPA fluid-analysis CLI:
//
//	gpa <model-file> fluid <horizon> <n>
//	gpa <model-file> sim <horizon> <n> <seed>
//	gpa <model-file> sweep <group> <component> <counts-csv> <horizon> <action>
//
// sweep re-solves the fluid model with the component's population at each
// comma-separated count and reports the equilibrium throughput of the
// action — the Fig 5 scalability experiment.
func GPAnalyser(args []string, fs *vfs.FS, out *bytes.Buffer) error {
	if len(args) < 4 {
		return fmt.Errorf("usage: gpa <model-file> fluid|sim <horizon> <n> [seed]")
	}
	src, err := fs.ReadFile(args[0])
	if err != nil {
		return err
	}
	m, err := gpepa.Parse(string(src))
	if err != nil {
		return err
	}
	if args[1] == "sweep" {
		if len(args) != 7 {
			return fmt.Errorf("usage: gpa <model-file> sweep <group> <component> <counts-csv> <horizon> <action>")
		}
		group, component, action := args[2], args[3], args[6]
		var counts []float64
		for _, c := range strings.Split(args[4], ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(c), 64)
			if err != nil {
				return fmt.Errorf("bad count %q", c)
			}
			counts = append(counts, v)
		}
		horizon, err := strconv.ParseFloat(args[5], 64)
		if err != nil {
			return fmt.Errorf("bad horizon %q", args[5])
		}
		points, err := gpepa.ScalabilitySweep(m, group, component, counts, horizon, action)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "GPEPA scalability sweep: %s[%s] over %d counts\n", group, component, len(points))
		fmt.Fprintf(out, "count\tthroughput(%s)\n", action)
		for _, p := range points {
			fmt.Fprintf(out, "%g\t%.6f\n", p.Count, p.Throughput)
		}
		if knee := gpepa.Saturation(points, 0.01); knee >= 0 {
			fmt.Fprintf(out, "saturation at count %g (%.6f)\n", points[knee].Count, points[knee].Throughput)
		} else {
			fmt.Fprintln(out, "no saturation within the swept range")
		}
		return nil
	}
	sys, err := gpepa.Compile(m)
	if err != nil {
		return err
	}
	horizon, err := strconv.ParseFloat(args[2], 64)
	if err != nil {
		return fmt.Errorf("bad horizon %q", args[2])
	}
	n, err := strconv.Atoi(args[3])
	if err != nil || n < 1 {
		return fmt.Errorf("bad sample count %q", args[3])
	}
	header := func() {
		fmt.Fprintf(out, "t")
		for _, v := range sys.Vars {
			fmt.Fprintf(out, "\t%s:%s", v.Group, v.State)
		}
		fmt.Fprintln(out)
	}
	switch args[1] {
	case "fluid":
		res, err := sys.Solve(horizon, n, gpepa.SolveOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "GPEPA fluid analysis (%d variables, horizon %g)\n", len(sys.Vars), horizon)
		header()
		for k := range res.Times {
			fmt.Fprintf(out, "%.4f", res.Times[k])
			for i := range sys.Vars {
				fmt.Fprintf(out, "\t%.6f", res.X[k][i])
			}
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "action throughput at horizon:\n")
		final := res.Final()
		for _, a := range sys.Actions {
			fmt.Fprintf(out, "  %s\t%.6f\n", a, sys.ActionThroughput(a, final))
		}
	case "sim":
		seed := uint64(1)
		if len(args) >= 5 {
			s, err := strconv.ParseUint(args[4], 10, 64)
			if err != nil {
				return fmt.Errorf("bad seed %q", args[4])
			}
			seed = s
		}
		res, err := sys.Simulate(horizon, n, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "GPEPA stochastic simulation (seed %d, %d jumps)\n", seed, res.Jumps)
		header()
		for k := range res.Times {
			fmt.Fprintf(out, "%.4f", res.Times[k])
			for i := range sys.Vars {
				fmt.Fprintf(out, "\t%.0f", res.X[k][i])
			}
			fmt.Fprintln(out)
		}
	default:
		return fmt.Errorf("unknown analysis %q (want fluid or sim)", args[1])
	}
	return nil
}
