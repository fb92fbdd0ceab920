// Package paper is the paper pass: every table and figure of the paper's
// evaluation, each a function of one Pass. cmd/repro prints Experiments()
// in order, and the root TestGoldenPaperPass pins each output to
// testdata/goldens/<name>.txt.
package paper

import (
	"context"
	"fmt"
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
)

// Pass carries artifacts shared between experiments (built images, hub).
type Pass struct {
	Framework *core.Framework
	Builder   *hostenv.Host
	Builds    map[core.Tool]*runtime.BuildResult
	HubServer *hub.Server
	HubClient *hub.Client
	Digests   map[core.Tool]string
	Study     *robustness.Study
	Obs       *obs.Registry // nil leaves the pass uninstrumented
}

// Open builds the three containers on the build host and pushes them to a
// fresh hub on a localhost port. Close stops that hub.
func Open(ctx context.Context, reg *obs.Registry) (*Pass, error) {
	p := &Pass{Framework: core.New(), Study: robustness.NewStudy(), Obs: reg}
	p.Framework.SetObs(reg)
	p.Study.Obs = reg
	var err error
	p.Builder, err = hostenv.ByName(hostenv.BuildHost)
	if err != nil {
		return nil, err
	}
	if err := p.Builder.InstallSingularity(); err != nil {
		return nil, err
	}
	p.Builds, err = p.Framework.BuildAllCtx(ctx, p.Builder)
	if err != nil {
		return nil, err
	}
	p.HubServer = hub.NewServer(hub.NewStore())
	addr, err := p.HubServer.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.HubClient = hub.NewClientWithOptions("http://"+addr, hub.ClientOptions{Obs: reg})
	p.Digests, err = p.Framework.PushAll(p.HubClient, p.Builds)
	if err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// Close stops the pass's hub.
func (p *Pass) Close() error { return p.HubServer.Close() }

// Experiment is one experiment of the pass: its name (the -only argument
// and the golden file's stem), a one-line description and its run.
type Experiment struct {
	Name string
	Desc string
	Run  func(context.Context, *Pass) (string, error)
}

// Experiments returns the fault-free experiments in print order.
func Experiments() []Experiment {
	return []Experiment{
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

// Chaos is the Fig 6 pulls under the fault plan seeded by seed.
func Chaos(seed uint64) Experiment {
	return Experiment{"chaos", "resilience: Fig 6 hub pulls under injected faults",
		func(ctx context.Context, p *Pass) (string, error) { return chaos(p, seed) }}
}

func table1(ctx context.Context, p *Pass) (string, error) {
	if err := robustness.CheckTableI(); err != nil {
		return "", err
	}
	return robustness.FormatTableI(), nil
}

func fig1(ctx context.Context, p *Pass) (string, error) {
	rep, err := p.Framework.Validate(core.ToolPEPA, p.Builder, p.Builds[core.ToolPEPA].Image,
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

func fig2(ctx context.Context, p *Pass) (string, error) {
	txt, err := p.Study.ActivityText(robustness.MappingA, 2)
	if err != nil {
		return "", err
	}
	dot, err := p.Study.ActivityDiagram(robustness.MappingA, 2)
	if err != nil {
		return "", err
	}
	return txt + "\n" + dot, nil
}

func cdfFigure(ctx context.Context, p *Pass, mapping string) (string, error) {
	times := make([]float64, 61)
	for i := range times {
		times[i] = float64(i) * 10
	}
	cdf, err := p.Study.FinishingCDFCtx(ctx, mapping, 0, times)
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

func fig3(ctx context.Context, p *Pass) (string, error) {
	return cdfFigure(ctx, p, robustness.MappingA)
}

func fig4(ctx context.Context, p *Pass) (string, error) {
	return cdfFigure(ctx, p, robustness.MappingB)
}

func fig5(ctx context.Context, p *Pass) (string, error) {
	ex := core.ExampleModel(core.ToolGPA)
	rep, err := p.Framework.Validate(core.ToolGPA, p.Builder, p.Builds[core.ToolGPA].Image,
		ex.Name, ex.Source, ex.Args...)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "clientServerScalability.gpepa: container output matches native: %v\n", rep.Match)
	b.WriteString(rep.ContainerOut)
	return b.String(), nil
}

func fig6(ctx context.Context, p *Pass) (string, error) {
	var b strings.Builder
	colls, err := p.HubClient.Collections()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "hub collections: %s\n", strings.Join(colls, ", "))
	entries, err := p.HubClient.List(p.Framework.Collection)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		fmt.Fprintf(&b, "  %s:%s  %s  %d bytes (built on %s)\n", e.Container, e.Tag, e.Digest[:19], e.Size, e.BuildHost)
	}
	b.WriteString("pulling each container with digest verification:\n")
	for _, tool := range core.Tools() {
		img, d, err := p.HubClient.Pull(p.Framework.Collection, string(tool), "latest", p.Digests[tool])
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  pulled %s  digest-ok=%v\n", img.Ref(), d == p.Digests[tool])
	}
	return b.String(), nil
}

// chaos re-runs the Fig 6 pulls against a fresh hub whose client
// transport injects a deterministic fault plan: fail the first pull's
// manifest fetch with a connection error, then a 503, then a
// digest-corrupting bit flip — so every transient class and the corrupt
// re-pull path is exercised. Every digest still verifies, and the whole output
// (decisions, attempt log, digests) is byte-identical for a fixed seed.
func chaos(p *Pass, seed uint64) (string, error) {
	srv := hub.NewServer(hub.NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer srv.Close()
	setup := hub.NewClient("http://" + addr)
	digests, err := p.Framework.PushAll(setup, p.Builds)
	if err != nil {
		return "", err
	}
	match := "GET /v1/" + p.Framework.Collection + "/"
	plan := faultinject.NewPlan(seed,
		faultinject.Rule{Match: match, Kind: faultinject.KindConn, First: 1},
		faultinject.Rule{Match: match, Kind: faultinject.KindStatus, Status: 503, First: 1},
		faultinject.Rule{Match: match, Kind: faultinject.KindCorrupt, First: 1},
	)
	client := hub.NewClientWithOptions("http://"+addr, hub.ClientOptions{
		Retry:      hub.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		JitterSeed: seed,
		Transport:  plan.Transport(nil),
		Obs:        p.Obs,
	})
	var b strings.Builder
	fmt.Fprintf(&b, "pulling each container under fault plan (seed %d):\n", seed)
	for _, tool := range core.Tools() {
		img, d, err := client.Pull(p.Framework.Collection, string(tool), "latest", digests[tool])
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

func matrix(ctx context.Context, p *Pass) (string, error) {
	entries, err := p.Framework.ValidationMatrixCtx(ctx, p.HubClient)
	if err != nil {
		return "", err
	}
	return core.FormatMatrix(entries), nil
}

func motivation(ctx context.Context, p *Pass) (string, error) {
	var b strings.Builder
	b.WriteString("native install of each tool from the host's own repositories:\n")
	hostNames := hostenv.Names()
	sort.Strings(hostNames)
	for _, hn := range hostNames {
		for _, tool := range core.Tools() {
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

func badges(ctx context.Context, p *Pass) (string, error) {
	report, err := p.Framework.AssessBadges(p.HubClient)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("ACM artifact badges (ref [1]) measured against this artifact:\n")
	b.WriteString(report.String())
	fmt.Fprintf(&b, "earned %d/5 badges\n", len(report.Earned()))
	return b.String(), nil
}

func futurework(ctx context.Context, p *Pass) (string, error) {
	build, err := p.Framework.BuildCtx(ctx, core.ToolMC, p.Builder)
	if err != nil {
		return "", err
	}
	props := "S >= 0.8 [ \"Proc\" ]\nP >= 0.5 [ F<=1 \"ProcDown\" ]\nT >= 2 [ serve ]\n"
	rep, err := p.Framework.ValidateWithFiles(core.ToolMC, p.Builder, build.Image, "simple.pepa",
		map[string]string{"simple.pepa": core.SimplePEPAModel, "props.csl": props}, "props.csl")
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fourth container %s built (digest %s)\n", build.Image.Ref(), build.Digest[:19])
	fmt.Fprintf(&b, "container output identical to native: %v\n", rep.Match)
	b.WriteString(rep.ContainerOut)
	return b.String(), nil
}

func security(ctx context.Context, p *Pass) (string, error) {
	var b strings.Builder
	img := p.Builds[core.ToolPEPA].Image
	for _, iso := range []runtime.Isolation{runtime.IsolationSingularity, runtime.IsolationDocker} {
		res, err := p.Framework.Engine.Run(img, p.Builder, runtime.RunOptions{
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
