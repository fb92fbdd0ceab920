package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/goldentest"
	"repro/internal/hostenv"
	"repro/internal/hub"
	"repro/internal/obs"
	"repro/internal/robustness"
	"repro/internal/runtime"
)

var paperWorkload = &workload{
	name:   "paper",
	why:    "one in-process repro pass, the calls cmd/repro makes: build, push, Table I, Figs 1-6, matrix, badges",
	warmup: 3,
	setup:  newPaper,
	layers: []layerMetric{
		{"core.build_all_ms", "ms", selfMS("core.build_all", "")},
		{"core.push_all_ms", "ms", selfMS("core.push_all", "")},
		{"core.validate_ms", "ms", selfMS("core.validate", "")},
		{"core.validation_matrix_ms", "ms", selfMS("core.validation_matrix", "")},
		{"core.assess_badges_ms", "ms", selfMS("core.assess_badges", "")},
		{"robustness.activity_ms", "ms", selfMS("robustness.activity", "")},
		{"robustness.finishing_cdf_ms", "ms", selfMS("robustness.finishing_cdf", "")},
		{"hub.pull_ms", "ms", selfMS("hub.pull", "")},
		{"hub.bytes_pushed", "bytes", sumMean(hubBytesPushed, "")},
		{"hub.bytes_pulled", "bytes", sumMean(hubBytesPulled, "")},
		{"hub.client_attempts", "count", counterMean("hub_client_attempts_total", "", 1)},
		{"hub.server_busy_ms", "ms", serverBusyMS("")},
		{"hostenv.native_install_ms", "ms", selfMS("hostenv.native_install", "")},
		{"runtime.run_ms", "ms", selfMS("runtime.run", "")},
		{"runtime.stage_replay_ratio", "ratio", stageReplayRatio("")},
	},
}

// goldenFiles are the repository goldens a paper pass must reproduce.
var goldenFiles = []string{"table1.txt", "fig2_activity_m3.txt", "matrix.txt", "digests.txt"}

// paperRun reruns the whole paper pass on every op, each from a fresh
// framework, engine, study and hub, so that nothing but the Go runtime's
// own state survives between ops.
type paperRun struct {
	e       *env
	goldens map[string]string
	// first holds the first op's experiment outputs; later ops must
	// reproduce them byte for byte.
	first map[string]string
}

func newPaper(e *env) (runner, error) {
	p := &paperRun{e: e, goldens: map[string]string{}}
	for _, name := range goldenFiles {
		b, err := os.ReadFile(filepath.Join(e.goldens, name))
		if err != nil {
			return nil, fmt.Errorf("reading goldens (run from the repository root or set -goldens): %w", err)
		}
		p.goldens[name] = goldentest.NormalizeEOL(string(b))
	}
	return p, nil
}

// paperState is what the experiments of one pass share, as in cmd/repro.
type paperState struct {
	tr      *tracer
	fw      *core.Framework
	builder *hostenv.Host
	builds  map[core.Tool]*runtime.BuildResult
	srv     *hub.Server
	cli     *hub.Client
	digests map[core.Tool]string
	study   *robustness.Study
	// futureDigest is the digest of the fourth (future-work) container.
	futureDigest string
}

type paperExperiment struct {
	name string
	fn   func(*paperState) (string, error)
}

// paperExperiments are cmd/repro's experiments, in its order.
var paperExperiments = []paperExperiment{
	{"table1", paperTable1},
	{"fig1", paperFig1},
	{"fig2", paperFig2},
	{"fig3", func(st *paperState) (string, error) { return paperCDF(st, robustness.MappingA) }},
	{"fig4", func(st *paperState) (string, error) { return paperCDF(st, robustness.MappingB) }},
	{"fig5", paperFig5},
	{"fig6", paperFig6},
	{"matrix", paperMatrix},
	{"motivation", paperMotivation},
	{"security", paperSecurity},
	{"futurework", paperFutureWork},
	{"badges", paperBadges},
}

func (p *paperRun) op() (string, error) {
	out, err := p.pass()
	if err != nil {
		return "paper", err
	}
	return "paper", p.check(out)
}

// pass runs one repro pass and returns each experiment's text, plus the
// image digests under "digests".
func (p *paperRun) pass() (map[string]string, error) {
	tr := p.e.tr
	var reg *obs.Registry
	if p.e.traced {
		reg = obs.NewRegistry()
	}
	st := &paperState{tr: tr}
	sp := tr.begin("core.new")
	st.fw = core.New()
	st.fw.SetObs(reg)
	sp.end()
	sp = tr.begin("robustness.new_study")
	st.study = robustness.NewStudy()
	sp.end()
	st.study.Obs = reg
	var err error
	if st.builder, err = prepareHost(tr, hostenv.BuildHost); err != nil {
		return nil, err
	}
	sp = tr.begin("core.build_all")
	st.builds, err = st.fw.BuildAll(st.builder)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("hub.listen")
	st.srv = hub.NewServer(hub.NewStore())
	st.srv.EnableMetrics(reg)
	addr, err := st.srv.Listen("127.0.0.1:0")
	sp.end()
	if err != nil {
		return nil, err
	}
	defer func() {
		sp := tr.begin("hub.close")
		st.srv.Close()
		sp.end()
	}()
	st.cli = hub.NewClientWithOptions("http://"+addr, hub.ClientOptions{Obs: reg})
	sp = tr.begin("core.push_all")
	st.digests, err = st.fw.PushAll(st.cli, st.builds)
	sp.end()
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, ex := range paperExperiments {
		text, err := ex.fn(st)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ex.name, err)
		}
		out[ex.name] = text
	}
	var d strings.Builder
	for _, t := range core.Tools() {
		fmt.Fprintf(&d, "%s %s\n", t, st.builds[t].Digest)
	}
	fmt.Fprintf(&d, "%s %s\n", core.ToolMC, st.futureDigest)
	out["digests"] = d.String()
	if reg != nil {
		tr.addCounters(flatten(reg.Snapshot()))
	}
	return out, nil
}

// check compares the pass with the repository goldens (Table I, Fig 2,
// the matrix, the image digests) and every experiment with the first op.
func (p *paperRun) check(out map[string]string) error {
	// Fig 2 prints the golden activity text, a blank line, then the DOT.
	fig2 := strings.HasPrefix(goldentest.NormalizeEOL(out["fig2"]), p.goldens["fig2_activity_m3.txt"]+"\n")
	for golden, ok := range map[string]bool{
		"table1.txt":           goldentest.NormalizeEOL(out["table1"]) == p.goldens["table1.txt"],
		"fig2_activity_m3.txt": fig2,
		"matrix.txt":           goldentest.NormalizeEOL(out["matrix"]) == p.goldens["matrix.txt"],
		"digests.txt":          goldentest.NormalizeEOL(out["digests"]) == p.goldens["digests.txt"],
	} {
		if !ok {
			return fmt.Errorf("paper: output drifted from testdata/goldens/%s", golden)
		}
	}
	if p.first == nil {
		p.first = out
		return nil
	}
	for name, text := range out {
		if text != p.first[name] {
			return fmt.Errorf("paper: %s output differs from the first op", name)
		}
	}
	return nil
}

func (p *paperRun) finish() error { return nil }
func (p *paperRun) close()        {}

// prepareHost builds a host profile with the container runtime installed.
func prepareHost(tr *tracer, name string) (*hostenv.Host, error) {
	sp := tr.begin("hostenv.prepare")
	defer sp.end()
	h, err := hostenv.ByName(name)
	if err != nil {
		return nil, err
	}
	if err := h.InstallSingularity(); err != nil {
		return nil, err
	}
	return h, nil
}

func paperTable1(st *paperState) (string, error) {
	sp := st.tr.begin("robustness.table1")
	defer sp.end()
	if err := robustness.CheckTableI(); err != nil {
		return "", err
	}
	return robustness.FormatTableI(), nil
}

// validate wraps core's native-vs-container validation in its span and
// fails unless the two outputs match, the paper's central claim.
func validate(st *paperState, t core.Tool, host *hostenv.Host, name, src string, args ...string) (*core.ValidationReport, error) {
	sp := st.tr.begin("core.validate")
	rep, err := st.fw.Validate(t, host, st.builds[t].Image, name, src, args...)
	sp.end()
	if err != nil {
		return nil, err
	}
	if !rep.Match {
		return nil, fmt.Errorf("%s on %s: container output differs from native", t, host.Name)
	}
	return rep, nil
}

func paperFig1(st *paperState) (string, error) {
	rep, err := validate(st, core.ToolPEPA, st.builder, "simple.pepa", core.SimplePEPAModel)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("tool=%s host=%s match=%v\nimage digest: %s\n--- containerized output ---\n%s",
		rep.Tool, rep.Host, rep.Match, rep.Digest, rep.ContainerOut), nil
}

func paperFig2(st *paperState) (string, error) {
	sp := st.tr.begin("robustness.activity")
	txt, err := st.study.ActivityText(robustness.MappingA, 2)
	sp.end()
	if err != nil {
		return "", err
	}
	sp = st.tr.begin("robustness.activity")
	dot, err := st.study.ActivityDiagram(robustness.MappingA, 2)
	sp.end()
	if err != nil {
		return "", err
	}
	return txt + "\n" + dot, nil
}

func paperCDF(st *paperState, mapping string) (string, error) {
	times := make([]float64, 61)
	for i := range times {
		times[i] = float64(i) * 10
	}
	sp := st.tr.begin("robustness.finishing_cdf")
	cdf, err := st.study.FinishingCDF(mapping, 0, times)
	sp.end()
	if err != nil {
		return "", err
	}
	if err := checkCDF(cdf.Probs); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "finishing-time CDF of machine M1, Mapping %s\nt\tP(T<=t)\n", mapping)
	for i := range cdf.Times {
		fmt.Fprintf(&b, "%.1f\t%.6f\n", cdf.Times[i], cdf.Probs[i])
	}
	fmt.Fprintf(&b, "median %.2f  mean %.2f\n", cdf.Quantile(0.5), cdf.Mean())
	return b.String(), nil
}

func paperFig5(st *paperState) (string, error) {
	ex := core.ExampleModel(core.ToolGPA)
	rep, err := validate(st, core.ToolGPA, st.builder, ex.Name, ex.Source, ex.Args...)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("clientServerScalability.gpepa: container output matches native: %v\n%s", rep.Match, rep.ContainerOut), nil
}

func paperFig6(st *paperState) (string, error) {
	var b strings.Builder
	sp := st.tr.begin("hub.collections")
	colls, err := st.cli.Collections()
	sp.end()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "hub collections: %s\n", strings.Join(colls, ", "))
	sp = st.tr.begin("hub.list")
	entries, err := st.cli.List(st.fw.Collection)
	sp.end()
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		fmt.Fprintf(&b, "  %s:%s  %s  %d bytes (built on %s)\n", e.Container, e.Tag, e.Digest[:19], e.Size, e.BuildHost)
	}
	b.WriteString("pulling each container with digest verification:\n")
	for _, tool := range core.Tools() {
		sp = st.tr.begin("hub.pull")
		img, d, err := st.cli.Pull(st.fw.Collection, string(tool), "latest", st.digests[tool])
		sp.end()
		if err != nil {
			return "", err
		}
		if d != st.digests[tool] {
			return "", fmt.Errorf("pulled %s digest %s, pushed %s", tool, d, st.digests[tool])
		}
		fmt.Fprintf(&b, "  pulled %s  digest-ok=%v\n", img.Ref(), d == st.digests[tool])
	}
	return b.String(), nil
}

func paperMatrix(st *paperState) (string, error) {
	sp := st.tr.begin("core.validation_matrix")
	entries, err := st.fw.ValidationMatrix(st.cli)
	sp.end()
	if err != nil {
		return "", err
	}
	return core.FormatMatrix(entries), nil
}

func paperMotivation(st *paperState) (string, error) {
	var b strings.Builder
	b.WriteString("native install of each tool from the host's own repositories:\n")
	names := hostenv.Names()
	sort.Strings(names)
	for _, hn := range names {
		for _, tool := range core.Tools() {
			sp := st.tr.begin("hostenv.prepare")
			h, err := hostenv.ByName(hn)
			sp.end()
			if err != nil {
				return "", err
			}
			pkg, err := tool.Package()
			if err != nil {
				return "", err
			}
			sp = st.tr.begin("hostenv.native_install")
			err = h.NativeInstall(pkg)
			sp.end()
			if err != nil {
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

func paperSecurity(st *paperState) (string, error) {
	var b strings.Builder
	img := st.builds[core.ToolPEPA].Image
	for _, iso := range []runtime.Isolation{runtime.IsolationSingularity, runtime.IsolationDocker} {
		sp := st.tr.begin("runtime.run")
		res, err := st.fw.Engine.Run(img, st.builder, runtime.RunOptions{
			Isolation: iso, AttemptEscalation: true, Script: "whoami",
		})
		sp.end()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-12s user-in-container=%-8s escalation-possible=%v\n", iso, res.User, res.EscalationSucceeded)
	}
	b.WriteString("Singularity's no-escalation property is why multi-tenant HPC sites accept it (SII.C).\n")
	return b.String(), nil
}

func paperFutureWork(st *paperState) (string, error) {
	sp := st.tr.begin("core.build")
	build, err := st.fw.Build(core.ToolMC, st.builder)
	sp.end()
	if err != nil {
		return "", err
	}
	st.futureDigest = build.Digest
	props := "S >= 0.8 [ \"Proc\" ]\nP >= 0.5 [ F<=1 \"ProcDown\" ]\nT >= 2 [ serve ]\n"
	sp = st.tr.begin("core.validate")
	rep, err := st.fw.ValidateWithFiles(core.ToolMC, st.builder, build.Image, "simple.pepa",
		map[string]string{"simple.pepa": core.SimplePEPAModel, "props.csl": props}, "props.csl")
	sp.end()
	if err != nil {
		return "", err
	}
	if !rep.Match {
		return "", fmt.Errorf("%s: container output differs from native", core.ToolMC)
	}
	return fmt.Sprintf("fourth container %s built (digest %s)\ncontainer output identical to native: %v\n%s",
		build.Image.Ref(), build.Digest[:19], rep.Match, rep.ContainerOut), nil
}

func paperBadges(st *paperState) (string, error) {
	sp := st.tr.begin("core.assess_badges")
	report, err := st.fw.AssessBadges(st.cli)
	sp.end()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("ACM artifact badges (ref [1]) measured against this artifact:\n%searned %d/5 badges\n",
		report.String(), len(report.Earned())), nil
}
