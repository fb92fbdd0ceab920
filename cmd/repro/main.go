// Command repro regenerates every table and figure of the paper's
// evaluation: it prints each experiment of the paper pass (package
// internal/paper) under a banner, in order.
//
// Usage: repro [-only <experiment>] [-outdir DIR]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/obs"
	"repro/internal/paper"
	"repro/internal/sigctx"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run() error {
	only := flag.String("only", "", "run a single experiment by name")
	outdir := flag.String("outdir", "", "also write each experiment's output to DIR/<name>.txt")
	chaosSeed := flag.Uint64("chaos-seed", 0, "run the Fig 6 hub experiment under a seeded fault plan (0 = off)")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics+span snapshot to this file on exit")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline); SIGINT/SIGTERM also cancel, a second signal force-aborts")
	flag.Parse()

	// Reject a misspelt -only before building anything. chaos is known
	// even without -chaos-seed, where it selects nothing.
	exps := paper.Experiments()
	var names []string
	for _, ex := range append(exps, paper.Chaos(0)) {
		names = append(names, ex.Name)
	}
	if *only != "" && !slices.Contains(names, *only) {
		return fmt.Errorf("unknown experiment %q (valid: %s)", *only, strings.Join(names, ", "))
	}

	ctx, stop := sigctx.WithSignals(context.Background())
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	pass, err := paper.Open(ctx, reg)
	if err != nil {
		return err
	}
	defer pass.Close()
	if *chaosSeed != 0 {
		exps = append(exps, paper.Chaos(*chaosSeed))
	}
	for _, ex := range exps {
		if *only != "" && ex.Name != *only {
			continue
		}
		sp := reg.StartSpan("experiment:" + ex.Name)
		out, err := ex.Run(ctx, pass)
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", ex.Name, err)
		}
		banner := fmt.Sprintf("==== %s — %s ====", ex.Name, ex.Desc)
		fmt.Println(banner)
		fmt.Println(out)
		if *outdir != "" {
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(*outdir, ex.Name+".txt"), []byte(out), 0o644); err != nil {
				return err
			}
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		if err := reg.Snapshot().WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics snapshot written to %s\n", *metricsOut)
	}
	return nil
}
