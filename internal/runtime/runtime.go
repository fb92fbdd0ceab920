// Package runtime implements the container engine: building images from
// definition files (bootstrap a base filesystem, copy %files, execute
// %post against the base distro's package repository, record %environment
// and %runscript) and running them on a host under one of two isolation
// models:
//
//   - IsolationSingularity — the user inside the container is the invoking
//     host user and privilege escalation is impossible (the design property
//     that made Singularity acceptable to multi-tenant HPC sites, §II.C);
//   - IsolationDocker — the engine runs as a root daemon and escalation
//     inside the container succeeds (the property that slowed Docker's
//     adoption on shared systems).
//
// Images are immutable at run time: each run executes against a copy-on-
// entry clone of the image filesystem, so runs cannot contaminate each
// other — another precondition for reproducibility.
package runtime

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/hostenv"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/pkgmgr"
	"repro/internal/recipe"
	"repro/internal/runctx"
	"repro/internal/shellenv"
	"repro/internal/vfs"
)

// Isolation selects the security model for container execution.
type Isolation int

// Isolation models.
const (
	IsolationSingularity Isolation = iota
	IsolationDocker
)

func (i Isolation) String() string {
	switch i {
	case IsolationSingularity:
		return "singularity"
	case IsolationDocker:
		return "docker"
	default:
		return fmt.Sprintf("isolation(%d)", int(i))
	}
}

// App is a Go-implemented application that can be installed into container
// images as an "#!app:" executable. Args are the command-line arguments;
// fs is the (writable clone of the) container filesystem; output goes to
// out. The same App values back the native (non-containerized) runs, which
// is what makes native-vs-container output comparison meaningful.
type App func(args []string, fs *vfs.FS, out *bytes.Buffer) error

// Engine builds and runs containers.
type Engine struct {
	// Bases maps bootstrap references to base filesystems and repos.
	Bases map[string]struct {
		FS   func() *vfs.FS
		Repo *pkgmgr.Repository
	}
	// Apps maps app names (the part after "#!app:") to implementations.
	Apps map[string]App
	// Version string recorded in build provenance.
	Version string

	// The build cache: because builds are deterministic functions of
	// (recipe source, name, tag), a repeated build can return the cached
	// image. The key is digest-relevant inputs only — no host name — so
	// the same recipe built on N hosts stores one image; BuildHost
	// provenance is patched into the returned metadata per call. Runs
	// clone the filesystem, so sharing is safe.
	cacheMu sync.Mutex
	cache   map[string]*BuildResult
	// cacheHits counts builds served whole from the cache; read it via
	// CacheHits. It is atomic because callers poll it while concurrent
	// builds are in flight.
	cacheHits atomic.Int64

	// The stage cache and layer store behind incremental builds: each
	// build stage (base bootstrap, %files, each %post section) emits a
	// content-addressed layer and caches its outcome keyed on the stage
	// inputs plus the parent layer-chain digest, so a rebuild re-executes
	// only the first changed stage and everything after it.
	stageMu sync.Mutex
	stages  map[string]*stageRec
	layers  *LayerStore

	// Obs, when non-nil, receives engine metrics (builds by cache
	// outcome, runs by isolation model, native runs). Nil costs nothing.
	Obs *obs.Registry
}

// NewEngine creates an engine with the standard base images and no apps.
func NewEngine() *Engine {
	return &Engine{
		Bases:   hostenv.BaseImages(),
		Apps:    map[string]App{},
		Version: "2.5.2", // mirrors the Singularity version used in the paper
		cache:   map[string]*BuildResult{},
		stages:  map[string]*stageRec{},
		layers:  NewLayerStore(),
	}
}

// CacheHits reports how many builds were served whole from the build
// cache. Safe to call while builds are in flight.
func (e *Engine) CacheHits() int64 { return e.cacheHits.Load() }

// Layers exposes the engine's content-addressed layer store (for
// inspection and hub transfers).
func (e *Engine) Layers() *LayerStore { return e.layers }

// RegisterApp installs a Go application under a name.
func (e *Engine) RegisterApp(name string, app App) { e.Apps[name] = app }

// BuildContext carries files available to the %files section.
type BuildContext struct {
	FS *vfs.FS // nil means an empty context
}

// BuildResult is a built image plus provenance.
type BuildResult struct {
	Image  *image.Image
	Digest string
	// PostOutput is the stdout of the %post section.
	PostOutput string
	// TestOutput is the stdout of the %test section (empty if no %test).
	TestOutput string
	// StagesExecuted and StagesReplayed count how many build stages ran
	// their script versus replaying a cached layer. A warm rebuild after
	// editing only the last stage reports StagesExecuted == 1.
	StagesExecuted int
	StagesReplayed int
}

// cachedFor adapts a cached build result to the requesting host: if the
// cached provenance already names this host the result is returned as is
// (pointer-identical, so repeat builds on one host share the instance);
// otherwise a shallow copy with BuildHost patched is returned — the
// content (filesystem, layers, digest) is identical by construction, only
// the provenance differs.
func cachedFor(res *BuildResult, host *hostenv.Host) *BuildResult {
	if res.Image == nil || res.Image.Meta.BuildHost == host.Name {
		return res
	}
	img := *res.Image
	img.Meta.BuildHost = host.Name
	out := *res
	out.Image = &img
	return &out
}

// Build executes a recipe into an image. The build host only contributes
// its name (provenance); all software comes from the base image's
// repository — the insulation from host package skew that the paper's
// containers provide.
func (e *Engine) Build(rcp *recipe.Recipe, host *hostenv.Host, ctx BuildContext, name, tag string) (*BuildResult, error) {
	return e.BuildCtx(context.Background(), rcp, host, ctx, name, tag)
}

// Build stages, in execution order, used for cancellation progress
// reporting: %files copy, %post, %test, digest.
const buildStages = 4

// BuildCtx is Build with cooperative cancellation checked at stage
// boundaries (before %files, %post, %test, and the final digest). A
// build interrupted between stages returns a *runctx.ErrCanceled
// reporting the stages completed; stages themselves are atomic.
func (e *Engine) BuildCtx(cctx context.Context, rcp *recipe.Recipe, host *hostenv.Host, ctx BuildContext, name, tag string) (*BuildResult, error) {
	canceled := func(stage int) error {
		cerr := cctx.Err()
		if cerr == nil {
			return nil
		}
		runctx.Record(e.Obs, "runtime.build", cerr)
		return runctx.New("runtime.build", cerr, stage, buildStages, "stages")
	}
	if err := canceled(0); err != nil {
		return nil, err
	}
	// Cache lookup: only context-free builds are cacheable (a build
	// context's files are not part of the key). The key carries only
	// digest-relevant inputs — the host is provenance, not content — so a
	// build by any host serves every host; the hit path patches BuildHost
	// into a shallow copy when the requesting host differs.
	cacheKey := ""
	if ctx.FS == nil {
		cacheKey = rcp.Source + "\x00" + name + "\x00" + tag
		e.cacheMu.Lock()
		res, ok := e.cache[cacheKey]
		e.cacheMu.Unlock()
		if ok {
			e.cacheHits.Add(1)
			e.Obs.Inc("runtime_builds_total", obs.L("cached", "true"))
			return cachedFor(res, host), nil
		}
	}
	e.Obs.Inc("runtime_builds_total", obs.L("cached", "false"))
	base, ok := e.Bases[rcp.From]
	if !ok {
		return nil, fmt.Errorf("runtime: unknown base image %q (available: %s)", rcp.From, strings.Join(hostenv.BaseImageNames(), ", "))
	}

	// The staged executor: the filesystem grows layer by layer. Each
	// stage either replays a cached layer (applying its diff and
	// restoring the recorded shell state) or executes for real and caches
	// the resulting layer. The chain digest ties every stage to its exact
	// ancestry, so an edit invalidates that stage and everything after.
	fs := vfs.New()
	chain := ""
	var layers []*image.Layer
	executed, replayed := 0, 0
	addLayer := func(rec *stageRec) {
		layers = append(layers, rec.layer)
		chain = chainDigest(chain, rec.layer.Digest())
	}

	// Stage: base bootstrap.
	{
		key := stageKey("base", chain, rcp.From)
		rec, ok := e.stageLookup(key)
		if ok {
			replayed++
			e.Obs.Inc("runtime_build_stages_total", obs.L("outcome", "replayed"))
		} else {
			rec = &stageRec{}
			layer, err := image.NewLayer(vfs.Diff(fs, base.FS()))
			if err != nil {
				return nil, err
			}
			rec.layer = e.layers.Put(layer)
			e.stageStore(key, rec)
			executed++
			e.Obs.Inc("runtime_build_stages_total", obs.L("outcome", "executed"))
		}
		if err := rec.layer.Apply(fs); err != nil {
			return nil, err
		}
		addLayer(rec)
	}

	// Stage: %files, copied from the build context. The key includes a
	// content fingerprint of every source subtree, so edited context
	// files invalidate the stage even though the recipe text is unchanged.
	if len(rcp.Files) > 0 {
		if ctx.FS == nil {
			return nil, fmt.Errorf("runtime: %%files requested but no build context provided")
		}
		inputs := make([]string, 0, 3*len(rcp.Files))
		for _, fp := range rcp.Files {
			sub, err := ctx.FS.HashSubtree(fp.Src)
			if err != nil {
				return nil, fmt.Errorf("runtime: %%files %s -> %s: %w", fp.Src, fp.Dst, err)
			}
			inputs = append(inputs, fp.Src, fp.Dst, sub)
		}
		key := stageKey("files", chain, inputs...)
		rec, ok := e.stageLookup(key)
		if ok {
			if err := rec.layer.Apply(fs); err != nil {
				return nil, err
			}
			replayed++
			e.Obs.Inc("runtime_build_stages_total", obs.L("outcome", "replayed"))
		} else {
			snap := fs.Clone()
			for _, fp := range rcp.Files {
				if err := ctx.FS.CopyInto(fs, fp.Src, fp.Dst); err != nil {
					return nil, fmt.Errorf("runtime: %%files %s -> %s: %w", fp.Src, fp.Dst, err)
				}
			}
			layer, err := image.NewLayer(vfs.Diff(snap, fs))
			if err != nil {
				return nil, err
			}
			rec = &stageRec{layer: e.layers.Put(layer)}
			e.stageStore(key, rec)
			executed++
			e.Obs.Inc("runtime_build_stages_total", obs.L("outcome", "executed"))
		}
		addLayer(rec)
	}
	if err := canceled(1); err != nil {
		return nil, err
	}

	// Stages: the %post sections, each running as root inside the build
	// sandbox against the base distro's repository. One shell session
	// spans all sections (variables and cwd persist), so a replayed stage
	// restores the session state the real execution would have left.
	env := shellenv.NewEnv(fs)
	env.User = "root"
	env.AllowEscalation = true
	env.Repo = base.Repo
	env.ExecHook = e.execHook(fs)
	for _, script := range rcp.Posts {
		if strings.TrimSpace(script) == "" {
			continue
		}
		key := stageKey("post", chain, script, hashSession(env.Vars, env.Cwd()))
		rec, ok := e.stageLookup(key)
		if ok {
			if err := rec.layer.Apply(fs); err != nil {
				return nil, err
			}
			env.Vars = copyVars(rec.vars)
			env.SetCwd(rec.cwd)
			env.Stdout.WriteString(rec.output)
			replayed++
			e.Obs.Inc("runtime_build_stages_total", obs.L("outcome", "replayed"))
		} else {
			snap := fs.Clone()
			outBefore := env.Stdout.Len()
			if err := env.Run(script); err != nil {
				return nil, fmt.Errorf("runtime: %%post failed: %w", err)
			}
			layer, err := image.NewLayer(vfs.Diff(snap, fs))
			if err != nil {
				return nil, err
			}
			rec = &stageRec{
				layer:  e.layers.Put(layer),
				output: env.Stdout.String()[outBefore:],
				vars:   copyVars(env.Vars),
				cwd:    env.Cwd(),
			}
			e.stageStore(key, rec)
			executed++
			e.Obs.Inc("runtime_build_stages_total", obs.L("outcome", "executed"))
		}
		addLayer(rec)
	}

	img := &image.Image{
		Meta: image.Metadata{
			Name: name, Tag: tag, BaseRef: rcp.From,
			Help: rcp.Help, Labels: rcp.Labels,
			Environment: rcp.Environment, Runscript: rcp.Runscript, Test: rcp.Test,
			RecipeSource: rcp.Source,
			BuildHost:    host.Name,
		},
		FS:     fs,
		Layers: layers,
	}
	res := &BuildResult{
		Image: img, PostOutput: env.Stdout.String(),
		StagesExecuted: executed, StagesReplayed: replayed,
	}
	if err := canceled(2); err != nil {
		return nil, err
	}
	// %test runs in the freshly built image under the run isolation model.
	if rcp.Test != "" {
		run, err := e.run(img, host, RunOptions{Script: rcp.Test})
		if err != nil {
			return nil, fmt.Errorf("runtime: %%test failed: %w", err)
		}
		res.TestOutput = run.Stdout
	}
	if err := canceled(3); err != nil {
		return nil, err
	}
	d, err := img.Digest()
	if err != nil {
		return nil, err
	}
	res.Digest = d
	if cacheKey != "" {
		e.cacheMu.Lock()
		e.cache[cacheKey] = res
		e.cacheMu.Unlock()
	}
	return res, nil
}

// RunOptions configures a container run.
type RunOptions struct {
	Isolation Isolation
	// Args are appended to the runscript invocation as $1.. (exposed as
	// ARG1..ARGn variables to the runscript).
	Args []string
	// Script overrides the image runscript (used for %test and `exec`).
	Script string
	// Binds copies host paths into the container before the run and back
	// out after it (a simplified bind mount).
	Binds []Bind
	// AttemptEscalation makes the run try `sudo whoami` first, recording
	// whether the isolation model permits it (used by the security tests).
	AttemptEscalation bool
}

// Bind is a simplified bind mount: the host path is copied to the
// container path before the run, and copied back afterwards.
type Bind struct {
	HostPath      string
	ContainerPath string
}

// RunResult reports a container run.
type RunResult struct {
	Stdout string
	// User is the identity the payload ran as.
	User string
	// EscalationSucceeded reports the outcome of AttemptEscalation.
	EscalationSucceeded bool
	// Commands is the provenance trace of executed commands.
	Commands []string
}

// Run executes the image's runscript on the host.
func (e *Engine) Run(img *image.Image, host *hostenv.Host, opts RunOptions) (*RunResult, error) {
	return e.run(img, host, opts)
}

// RunCtx is Run with cooperative cancellation: the context is checked once
// before the container starts, so a canceled context never launches a run.
func (e *Engine) RunCtx(cctx context.Context, img *image.Image, host *hostenv.Host, opts RunOptions) (*RunResult, error) {
	if cerr := cctx.Err(); cerr != nil {
		runctx.Record(e.Obs, "runtime.run", cerr)
		return nil, runctx.New("runtime.run", cerr, 0, 1, "runs")
	}
	return e.run(img, host, opts)
}

func (e *Engine) run(img *image.Image, host *hostenv.Host, opts RunOptions) (*RunResult, error) {
	if !host.HasSingularity() {
		return nil, fmt.Errorf("runtime: host %s has no container runtime installed", host.Name)
	}
	e.Obs.Inc("runtime_runs_total", obs.L("isolation", opts.Isolation.String()))
	// Copy-on-entry: the image filesystem is never mutated by runs.
	fs := img.FS.Clone()
	for _, b := range opts.Binds {
		if err := host.FS.CopyInto(fs, b.HostPath, b.ContainerPath); err != nil {
			return nil, fmt.Errorf("runtime: bind %s -> %s: %w", b.HostPath, b.ContainerPath, err)
		}
	}
	env := shellenv.NewEnv(fs)
	env.ExecHook = e.execHook(fs)
	switch opts.Isolation {
	case IsolationSingularity:
		// User inside == user outside; no escalation.
		env.User = host.User
		env.AllowEscalation = false
	case IsolationDocker:
		env.User = "root"
		env.AllowEscalation = true
	}
	res := &RunResult{User: env.User}
	if opts.AttemptEscalation {
		err := env.Run("sudo whoami")
		res.EscalationSucceeded = err == nil
		env.Stdout.Reset()
	}
	if img.Meta.Environment != "" {
		if err := env.Run(img.Meta.Environment); err != nil {
			return nil, fmt.Errorf("runtime: %%environment failed: %w", err)
		}
		env.Stdout.Reset() // environment output is not part of the run output
	}
	for i, a := range opts.Args {
		env.Vars[fmt.Sprintf("ARG%d", i+1)] = a
	}
	script := opts.Script
	if script == "" {
		script = img.Meta.Runscript
	}
	if script == "" {
		return nil, fmt.Errorf("runtime: image %s has no runscript and no script was given", img.Ref())
	}
	if err := env.Run(script); err != nil {
		return nil, fmt.Errorf("runtime: runscript failed: %w", err)
	}
	for _, b := range opts.Binds {
		if err := fs.CopyInto(host.FS, b.ContainerPath, b.HostPath); err != nil {
			return nil, fmt.Errorf("runtime: bind-back %s -> %s: %w", b.ContainerPath, b.HostPath, err)
		}
	}
	res.Stdout = env.Stdout.String()
	res.Commands = env.Trace
	return res, nil
}

// appShebang is the interpreter prefix for Go-implemented applications.
const appShebang = "#!app:"

// execHook dispatches "#!app:<name>" executables to registered Apps.
func (e *Engine) execHook(fs *vfs.FS) func(string, []string, []byte, *bytes.Buffer) (bool, error) {
	return func(path string, args []string, data []byte, out *bytes.Buffer) (bool, error) {
		if !bytes.HasPrefix(data, []byte(appShebang)) {
			return false, nil
		}
		line := string(data[len(appShebang):])
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		name := strings.TrimSpace(line)
		app, ok := e.Apps[name]
		if !ok {
			return true, fmt.Errorf("runtime: executable %s requests unknown app %q", path, name)
		}
		if err := app(args, fs, out); err != nil {
			return true, fmt.Errorf("runtime: app %s: %w", name, err)
		}
		return true, nil
	}
}

// InstallAppBinary writes an "#!app:" executable into a filesystem. The
// path must be absolute (contain a "/"): a bare name like "pepa" has no
// parent directory to create and is rejected rather than guessed at.
func InstallAppBinary(fs *vfs.FS, path, appName string) error {
	slash := strings.LastIndex(path, "/")
	if slash < 0 {
		return fmt.Errorf("runtime: app binary path %q is not absolute", path)
	}
	dir := path[:slash]
	if dir == "" {
		dir = "/"
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return fs.WriteFile(path, []byte(appShebang+appName+"\n"), 0o755)
}

// NativeRun executes an app directly on a host (no container): the
// baseline the paper compares containerized runs against. The app sees the
// host filesystem.
func (e *Engine) NativeRun(appName string, args []string, host *hostenv.Host) (string, error) {
	app, ok := e.Apps[appName]
	if !ok {
		return "", fmt.Errorf("runtime: unknown app %q", appName)
	}
	e.Obs.Inc("runtime_native_runs_total")
	var out bytes.Buffer
	if err := app(args, host.FS, &out); err != nil {
		return "", fmt.Errorf("runtime: native %s on %s: %w", appName, host.Name, err)
	}
	return out.String(), nil
}
