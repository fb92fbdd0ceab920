// Command repro regenerates every table and figure of the paper's
// evaluation:
//
//	table1   Table I   — the two application-to-machine mappings
//	fig1     Fig 1     — simple PEPA model, container vs native validation
//	fig2     Fig 2     — activity diagram of machine M3 under Mapping A
//	fig3     Fig 3     — finishing-time CDF of M1 under Mapping A
//	fig4     Fig 4     — finishing-time CDF of M1 under Mapping B
//	fig5     Fig 5     — clientServerScalability.gpepa in the GPA container
//	fig6     Fig 6     — hub collection listing + pull of every container
//	matrix   §III      — cross-platform validation matrix (7 hosts x 3 tools)
//	motivation §I-II   — native-install failures vs container pulls
//	security  §II.C    — Docker vs Singularity escalation behaviour
//
// Usage: repro [-only <experiment>] [-outdir DIR]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/hostenv"
	"repro/internal/hub"
	"repro/internal/obs"
	"repro/internal/robustness"
	"repro/internal/runtime"
	"repro/internal/sigctx"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

type experiment struct {
	name string
	desc string
	fn   func(context.Context, *state) (string, error)
}

// state carries artifacts shared between experiments (built images, hub).
type state struct {
	fw      *core.Framework
	builder *hostenv.Host
	builds  map[core.Tool]*runtime.BuildResult
	hubSrv  *hub.Server
	hubCli  *hub.Client
	digests map[core.Tool]string
	study   *robustness.Study
	obs     *obs.Registry // nil unless -metrics-out is set
}

func newState(ctx context.Context, reg *obs.Registry) (*state, error) {
	st := &state{fw: core.New(), study: robustness.NewStudy(), obs: reg}
	st.fw.SetObs(reg)
	st.study.Obs = reg
	var err error
	st.builder, err = hostenv.ByName(hostenv.BuildHost)
	if err != nil {
		return nil, err
	}
	if err := st.builder.InstallSingularity(); err != nil {
		return nil, err
	}
	st.builds, err = st.fw.BuildAllCtx(ctx, st.builder)
	if err != nil {
		return nil, err
	}
	st.hubSrv = hub.NewServer(hub.NewStore())
	addr, err := st.hubSrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.hubCli = hub.NewClientWithOptions("http://"+addr, hub.ClientOptions{Obs: reg})
	st.digests, err = st.fw.PushAll(st.hubCli, st.builds)
	if err != nil {
		return nil, err
	}
	return st, nil
}

func experiments() []experiment {
	return []experiment{
		{"table1", "Table I: mappings A and B", table1},
		{"fig1", "Fig 1: PEPA container validation", fig1},
		{"fig2", "Fig 2: activity diagram of M3 (Mapping A)", fig2},
		{"fig3", "Fig 3: finishing-time CDF of M1, Mapping A", fig3},
		{"fig4", "Fig 4: finishing-time CDF of M1, Mapping B", fig4},
		{"fig5", "Fig 5: clientServerScalability.gpepa in the GPA container", fig5},
		{"fig6", "Fig 6: hub collection + pull of each container", fig6},
		{"matrix", "SIII: cross-platform validation matrix", matrix},
		{"motivation", "SI-II: native install failures vs container pulls", motivation},
		{"security", "SII.C: Docker vs Singularity privilege escalation", security},
		{"futurework", "SIV: containerizing a further tool (CSL model checker)", futurework},
		{"badges", "SII.B: ACM artifact badge self-assessment", badges},
	}
}

func run() error {
	only := flag.String("only", "", "run a single experiment by name")
	outdir := flag.String("outdir", "", "also write each experiment's output to DIR/<name>.txt")
	chaosSeed := flag.Uint64("chaos-seed", 0, "run the Fig 6 hub experiment under a seeded fault plan (0 = off)")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics+span snapshot to this file on exit")
	workers := flag.Int("workers", 0, "goroutines per CTMC solve in the robustness study (0 or 1 sequential; results are bit-identical)")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline); SIGINT/SIGTERM also cancel, a second signal force-aborts")
	ckPath := flag.String("checkpoint", "", "persist finished robustness-study cells to this file (crash-safe); with -resume, skip the ones already there")
	resume := flag.Bool("resume", false, "reuse matching study cells from -checkpoint instead of starting fresh")
	flag.Parse()

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
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	st, err := newState(ctx, reg)
	if err != nil {
		return err
	}
	st.study.Workers = *workers
	st.study.Checkpoint = *ckPath
	defer st.hubSrv.Close()
	exps := experiments()
	if *chaosSeed != 0 {
		seed := *chaosSeed
		exps = append(exps, experiment{
			"chaos", "resilience: Fig 6 hub pulls under injected faults",
			func(ctx context.Context, st *state) (string, error) { return chaos(st, seed) },
		})
	}
	for _, ex := range exps {
		if *only != "" && ex.name != *only {
			continue
		}
		sp := reg.StartSpan("experiment:" + ex.name)
		out, err := ex.fn(ctx, st)
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", ex.name, err)
		}
		banner := fmt.Sprintf("==== %s — %s ====", ex.name, ex.desc)
		fmt.Println(banner)
		fmt.Println(out)
		if *outdir != "" {
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(*outdir, ex.name+".txt"), []byte(out), 0o644); err != nil {
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

func table1(ctx context.Context, st *state) (string, error) {
	if err := robustness.CheckTableI(); err != nil {
		return "", err
	}
	return robustness.FormatTableI(), nil
}

func fig1(ctx context.Context, st *state) (string, error) {
	rep, err := st.fw.Validate(core.ToolPEPA, st.builder, st.builds[core.ToolPEPA].Image,
		"simple.pepa", core.SimplePEPAModel)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tool=%s host=%s match=%v\n", rep.Tool, rep.Host, rep.Match)
	fmt.Fprintf(&b, "image digest: %s\n", rep.Digest)
	b.WriteString("--- containerized output ---\n")
	b.WriteString(rep.ContainerOut)
	return b.String(), nil
}

func fig2(ctx context.Context, st *state) (string, error) {
	txt, err := st.study.ActivityText(robustness.MappingA, 2)
	if err != nil {
		return "", err
	}
	dot, err := st.study.ActivityDiagram(robustness.MappingA, 2)
	if err != nil {
		return "", err
	}
	return txt + "\n" + dot, nil
}

func cdfFigure(ctx context.Context, st *state, mapping string) (string, error) {
	times := make([]float64, 61)
	for i := range times {
		times[i] = float64(i) * 10
	}
	cdf, err := st.study.FinishingCDFCtx(ctx, mapping, 0, times)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "finishing-time CDF of machine M1, Mapping %s\n", mapping)
	b.WriteString("t\tP(T<=t)\n")
	for i := range cdf.Times {
		fmt.Fprintf(&b, "%.1f\t%.6f\n", cdf.Times[i], cdf.Probs[i])
	}
	fmt.Fprintf(&b, "median %.2f  mean %.2f\n", cdf.Quantile(0.5), cdf.Mean())
	return b.String(), nil
}

func fig3(ctx context.Context, st *state) (string, error) { return cdfFigure(ctx, st, robustness.MappingA) }
func fig4(ctx context.Context, st *state) (string, error) { return cdfFigure(ctx, st, robustness.MappingB) }

func fig5(ctx context.Context, st *state) (string, error) {
	ex := core.ExampleModel(core.ToolGPA)
	rep, err := st.fw.Validate(core.ToolGPA, st.builder, st.builds[core.ToolGPA].Image,
		ex.Name, ex.Source, ex.Args...)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "clientServerScalability.gpepa: container output matches native: %v\n", rep.Match)
	b.WriteString(rep.ContainerOut)
	return b.String(), nil
}

func fig6(ctx context.Context, st *state) (string, error) {
	var b strings.Builder
	colls, err := st.hubCli.Collections()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "hub collections: %s\n", strings.Join(colls, ", "))
	entries, err := st.hubCli.List(st.fw.Collection)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		fmt.Fprintf(&b, "  %s:%s  %s  %d bytes (built on %s)\n", e.Container, e.Tag, e.Digest[:19], e.Size, e.BuildHost)
	}
	b.WriteString("pulling each container with digest verification:\n")
	for _, tool := range core.Tools() {
		img, d, err := st.hubCli.Pull(st.fw.Collection, string(tool), "latest", st.digests[tool])
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  pulled %s  digest-ok=%v\n", img.Ref(), d == st.digests[tool])
	}
	return b.String(), nil
}

// chaos re-runs the Fig 6 pulls against a fresh hub whose client
// transport injects a deterministic fault plan: fail the first pull's
// manifest fetch with a connection error, then a 503, then a
// digest-corrupting bit flip — so every transient class and the corrupt
// re-pull path is exercised. Every digest still verifies, and the whole output
// (decisions, attempt log, digests) is byte-identical for a fixed seed.
func chaos(st *state, seed uint64) (string, error) {
	srv := hub.NewServer(hub.NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer srv.Close()
	setup := hub.NewClient("http://" + addr)
	digests, err := st.fw.PushAll(setup, st.builds)
	if err != nil {
		return "", err
	}
	match := "GET /v1/" + st.fw.Collection + "/"
	plan := faultinject.NewPlan(seed,
		faultinject.Rule{Match: match, Kind: faultinject.KindConn, First: 1},
		faultinject.Rule{Match: match, Kind: faultinject.KindStatus, Status: 503, First: 1},
		faultinject.Rule{Match: match, Kind: faultinject.KindCorrupt, First: 1},
	)
	client := hub.NewClientWithOptions("http://"+addr, hub.ClientOptions{
		Retry:      hub.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		JitterSeed: seed,
		Transport:  plan.Transport(nil),
		Obs:        st.obs,
	})
	var b strings.Builder
	fmt.Fprintf(&b, "pulling each container under fault plan (seed %d):\n", seed)
	for _, tool := range core.Tools() {
		img, d, err := client.Pull(st.fw.Collection, string(tool), "latest", digests[tool])
		if err != nil {
			return "", fmt.Errorf("chaos pull of %s: %w", tool, err)
		}
		fmt.Fprintf(&b, "  pulled %s  digest-ok=%v\n", img.Ref(), d == digests[tool])
	}
	b.WriteString("fault plan decisions:\n  " + strings.Join(plan.Log(), "\n  ") + "\n")
	b.WriteString("client attempt log:\n  " + strings.Join(client.AttemptLog(), "\n  ") + "\n")
	fmt.Fprintf(&b, "breaker state after run: %s\n", client.Breaker().State())
	return b.String(), nil
}

func matrix(ctx context.Context, st *state) (string, error) {
	entries, err := st.fw.ValidationMatrixCtx(ctx, st.hubCli)
	if err != nil {
		return "", err
	}
	return core.FormatMatrix(entries), nil
}

func motivation(ctx context.Context, st *state) (string, error) {
	var b strings.Builder
	b.WriteString("native install of each tool from the host's own repositories:\n")
	tools := core.Tools()
	var hostNames []string
	hostNames = append(hostNames, hostenv.Names()...)
	sort.Strings(hostNames)
	for _, hn := range hostNames {
		for _, tool := range tools {
			h, err := hostenv.ByName(hn)
			if err != nil {
				return "", err
			}
			pkg, err := tool.Package()
			if err != nil {
				return "", err
			}
			if err := h.NativeInstall(pkg); err != nil {
				short := err.Error()
				if i := strings.Index(short, "pkgmgr:"); i >= 0 {
					short = short[i:]
				}
				fmt.Fprintf(&b, "  %-24s %-8s FAIL: %s\n", hn, tool, short)
			} else {
				fmt.Fprintf(&b, "  %-24s %-8s ok\n", hn, tool)
			}
		}
	}
	b.WriteString("container pull+run succeeds on every profile (see matrix).\n")
	return b.String(), nil
}

func badges(ctx context.Context, st *state) (string, error) {
	report, err := st.fw.AssessBadges(st.hubCli)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("ACM artifact badges (ref [1]) measured against this artifact:\n")
	b.WriteString(report.String())
	fmt.Fprintf(&b, "earned %d/5 badges\n", len(report.Earned()))
	return b.String(), nil
}

func futurework(ctx context.Context, st *state) (string, error) {
	build, err := st.fw.BuildCtx(ctx, core.ToolMC, st.builder)
	if err != nil {
		return "", err
	}
	props := "S >= 0.8 [ \"Proc\" ]\nP >= 0.5 [ F<=1 \"ProcDown\" ]\nT >= 2 [ serve ]\n"
	rep, err := st.fw.ValidateWithFiles(core.ToolMC, st.builder, build.Image, "simple.pepa",
		map[string]string{"simple.pepa": core.SimplePEPAModel, "props.csl": props}, "props.csl")
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fourth container %s built (digest %s)\n", build.Image.Ref(), mustDigest(build))
	fmt.Fprintf(&b, "container output identical to native: %v\n", rep.Match)
	b.WriteString(rep.ContainerOut)
	return b.String(), nil
}

func mustDigest(b *runtime.BuildResult) string {
	if len(b.Digest) >= 19 {
		return b.Digest[:19]
	}
	return b.Digest
}

func security(ctx context.Context, st *state) (string, error) {
	var b strings.Builder
	img := st.builds[core.ToolPEPA].Image
	for _, iso := range []runtime.Isolation{runtime.IsolationSingularity, runtime.IsolationDocker} {
		res, err := st.fw.Engine.Run(img, st.builder, runtime.RunOptions{
			Isolation:         iso,
			AttemptEscalation: true,
			Script:            "whoami",
		})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-12s user-in-container=%-8s escalation-possible=%v\n",
			iso, res.User, res.EscalationSucceeded)
	}
	b.WriteString("Singularity's no-escalation property is why multi-tenant HPC sites accept it (SII.C).\n")
	return b.String(), nil
}
