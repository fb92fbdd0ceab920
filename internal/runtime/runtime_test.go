package runtime

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/hostenv"
	"repro/internal/recipe"
	"repro/internal/vfs"
)

const helloRecipe = `Bootstrap: library
From: centos:7.4

%environment
    export GREETING=hello

%post
    mkdir -p /opt/tool
    echo payload > /opt/tool/data

%runscript
    echo $GREETING from container
    cat /opt/tool/data

%test
    test -f /opt/tool/data
`

func buildHost(t *testing.T) *hostenv.Host {
	t.Helper()
	h, err := hostenv.ByName(hostenv.BuildHost)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.InstallSingularity(); err != nil {
		t.Fatal(err)
	}
	return h
}

func mustRecipe(t *testing.T, src string) *recipe.Recipe {
	t.Helper()
	r, err := recipe.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBuildAndRun(t *testing.T) {
	e := NewEngine()
	host := buildHost(t)
	res, err := e.Build(mustRecipe(t, helloRecipe), host, BuildContext{}, "hello", "latest")
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest == "" || !strings.HasPrefix(res.Digest, "sha256:") {
		t.Errorf("digest = %q", res.Digest)
	}
	run, err := e.Run(res.Image, host, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(run.Stdout, "hello from container") {
		t.Errorf("stdout = %q", run.Stdout)
	}
	if !strings.Contains(run.Stdout, "payload") {
		t.Errorf("stdout = %q", run.Stdout)
	}
}

func TestBuildUnknownBase(t *testing.T) {
	e := NewEngine()
	host := buildHost(t)
	_, err := e.Build(mustRecipe(t, "Bootstrap: library\nFrom: gentoo:0\n%runscript\n echo x\n"), host, BuildContext{}, "x", "y")
	if err == nil || !strings.Contains(err.Error(), "unknown base image") {
		t.Errorf("err = %v", err)
	}
}

func TestBuildFilesSection(t *testing.T) {
	e := NewEngine()
	host := buildHost(t)
	ctx := vfs.New()
	ctx.MkdirAll("/models", 0o755)
	ctx.WriteFile("/models/m.pepa", []byte("P = (a,1).P; P"), 0o644)
	rcp := mustRecipe(t, "Bootstrap: library\nFrom: centos:7.4\n%files\n  /models/m.pepa /opt/m.pepa\n%runscript\n cat /opt/m.pepa\n")
	res, err := e.Build(rcp, host, BuildContext{FS: ctx}, "m", "1")
	if err != nil {
		t.Fatal(err)
	}
	run, err := e.Run(res.Image, host, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(run.Stdout, "(a,1)") {
		t.Errorf("stdout = %q", run.Stdout)
	}
	// %files without a context is an error.
	if _, err := e.Build(rcp, host, BuildContext{}, "m", "2"); err == nil {
		t.Error("build without context accepted a files section")
	}
}

func TestBuildPostFailureIsReported(t *testing.T) {
	e := NewEngine()
	host := buildHost(t)
	_, err := e.Build(mustRecipe(t, "Bootstrap: library\nFrom: centos:7.4\n%post\n  frobnicate\n%runscript\n echo x\n"), host, BuildContext{}, "bad", "1")
	if err == nil || !strings.Contains(err.Error(), "%post failed") {
		t.Errorf("err = %v", err)
	}
}

func TestBuildTestSectionRuns(t *testing.T) {
	e := NewEngine()
	host := buildHost(t)
	// A failing %test aborts the build.
	_, err := e.Build(mustRecipe(t, "Bootstrap: library\nFrom: centos:7.4\n%runscript\n echo x\n%test\n  test -f /nonexistent\n"), host, BuildContext{}, "t", "1")
	if err == nil || !strings.Contains(err.Error(), "%test failed") {
		t.Errorf("err = %v", err)
	}
}

func TestBuildUsesBaseRepoNotHostRepo(t *testing.T) {
	// Build on Ubuntu 18.04, whose native repo cannot install the PEPA
	// plug-in — but the centos:7.4 base image repo can. This is the
	// central claim: the container insulates from host package skew.
	e := NewEngine()
	host, err := hostenv.ByName(hostenv.Ubuntu1804)
	if err != nil {
		t.Fatal(err)
	}
	if err := host.InstallSingularity(); err != nil {
		t.Fatal(err)
	}
	if err := host.NativeInstall("pepa-eclipse-plugin"); err == nil {
		t.Fatal("precondition failed: native install should fail on ubuntu 18.04")
	}
	rcp := mustRecipe(t, "Bootstrap: library\nFrom: centos:7.4\n%post\n  pkg install pepa-eclipse-plugin\n%runscript\n  test -e /opt/eclipse/plugins/pepa.jar && echo plugin-ok\n")
	res, err := e.Build(rcp, host, BuildContext{}, "pepa", "latest")
	if err != nil {
		t.Fatalf("containerized build failed on skewed host: %v", err)
	}
	run, err := e.Run(res.Image, host, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(run.Stdout, "plugin-ok") {
		t.Errorf("stdout = %q", run.Stdout)
	}
}

func TestRunIsolationModels(t *testing.T) {
	e := NewEngine()
	host := buildHost(t)
	res, err := e.Build(mustRecipe(t, "Bootstrap: library\nFrom: centos:7.4\n%runscript\n whoami\n"), host, BuildContext{}, "id", "1")
	if err != nil {
		t.Fatal(err)
	}
	sing, err := e.Run(res.Image, host, RunOptions{Isolation: IsolationSingularity, AttemptEscalation: true})
	if err != nil {
		t.Fatal(err)
	}
	if sing.User != host.User {
		t.Errorf("singularity user = %q, want host user %q", sing.User, host.User)
	}
	if sing.EscalationSucceeded {
		t.Error("privilege escalation succeeded under the Singularity model")
	}
	if !strings.Contains(sing.Stdout, host.User) {
		t.Errorf("whoami inside = %q", sing.Stdout)
	}
	dock, err := e.Run(res.Image, host, RunOptions{Isolation: IsolationDocker, AttemptEscalation: true})
	if err != nil {
		t.Fatal(err)
	}
	if dock.User != "root" {
		t.Errorf("docker user = %q, want root", dock.User)
	}
	if !dock.EscalationSucceeded {
		t.Error("escalation failed under the Docker model")
	}
}

func TestRunsDoNotMutateImage(t *testing.T) {
	e := NewEngine()
	host := buildHost(t)
	res, err := e.Build(mustRecipe(t, "Bootstrap: library\nFrom: centos:7.4\n%runscript\n echo scribble > /tmp/scratch\n echo done\n"), host, BuildContext{}, "imm", "1")
	if err != nil {
		t.Fatal(err)
	}
	before, _ := res.Image.Digest()
	if _, err := e.Run(res.Image, host, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	after, _ := res.Image.Digest()
	if before != after {
		t.Error("running the container mutated the image")
	}
	if res.Image.FS.Exists("/tmp/scratch") {
		t.Error("run wrote into the image filesystem")
	}
}

func TestRunRequiresRuntimeOnHost(t *testing.T) {
	e := NewEngine()
	builder := buildHost(t)
	res, err := e.Build(mustRecipe(t, "Bootstrap: library\nFrom: centos:7.4\n%runscript\n echo x\n"), builder, BuildContext{}, "x", "1")
	if err != nil {
		t.Fatal(err)
	}
	bare, _ := hostenv.ByName(hostenv.Debian96) // no singularity installed
	if _, err := e.Run(res.Image, bare, RunOptions{}); err == nil {
		t.Error("run succeeded on host without container runtime")
	}
}

func TestBindMounts(t *testing.T) {
	e := NewEngine()
	host := buildHost(t)
	host.FS.MkdirAll("/home/modeler/data", 0o755)
	host.FS.WriteFile("/home/modeler/data/in.txt", []byte("input-data"), 0o644)
	res, err := e.Build(mustRecipe(t, "Bootstrap: library\nFrom: centos:7.4\n%post\n  mkdir -p /data\n%runscript\n  cat /data/in.txt > /data/out.txt\n  echo ran\n"), host, BuildContext{}, "bind", "1")
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run(res.Image, host, RunOptions{
		Binds: []Bind{{HostPath: "/home/modeler/data", ContainerPath: "/data"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := host.FS.ReadFile("/home/modeler/data/out.txt")
	if err != nil {
		t.Fatalf("bind-back missing: %v", err)
	}
	if string(out) != "input-data" {
		t.Errorf("bound-out content = %q", out)
	}
}

func TestAppDispatch(t *testing.T) {
	e := NewEngine()
	e.RegisterApp("greeter", func(args []string, fs *vfs.FS, out *bytes.Buffer) error {
		fmt.Fprintf(out, "greetings %s\n", strings.Join(args, ","))
		return nil
	})
	host := buildHost(t)
	rcp := mustRecipe(t, "Bootstrap: library\nFrom: centos:7.4\n%post\n  mkdir -p /usr/local/bin\n%runscript\n  /usr/local/bin/greet alice bob\n")
	res, err := e.Build(rcp, host, BuildContext{}, "greet", "1")
	if err != nil {
		t.Fatal(err)
	}
	if err := InstallAppBinary(res.Image.FS, "/usr/local/bin/greet", "greeter"); err != nil {
		t.Fatal(err)
	}
	run, err := e.Run(res.Image, host, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(run.Stdout, "greetings alice,bob") {
		t.Errorf("stdout = %q", run.Stdout)
	}
}

func TestAppUnknownName(t *testing.T) {
	e := NewEngine()
	host := buildHost(t)
	res, err := e.Build(mustRecipe(t, "Bootstrap: library\nFrom: centos:7.4\n%runscript\n  /bin/mystery\n"), host, BuildContext{}, "x", "1")
	if err != nil {
		t.Fatal(err)
	}
	InstallAppBinary(res.Image.FS, "/bin/mystery", "no-such-app")
	if _, err := e.Run(res.Image, host, RunOptions{}); err == nil || !strings.Contains(err.Error(), "unknown app") {
		t.Errorf("err = %v", err)
	}
}

func TestNativeRun(t *testing.T) {
	e := NewEngine()
	e.RegisterApp("pwd-app", func(args []string, fs *vfs.FS, out *bytes.Buffer) error {
		if fs.Exists("/etc/os-release") {
			out.WriteString("host-fs\n")
		}
		return nil
	})
	host := buildHost(t)
	out, err := e.NativeRun("pwd-app", nil, host)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "host-fs") {
		t.Errorf("out = %q", out)
	}
	if _, err := e.NativeRun("ghost", nil, host); err == nil {
		t.Error("unknown native app accepted")
	}
}

func TestRunArgsExposedAsVars(t *testing.T) {
	e := NewEngine()
	host := buildHost(t)
	res, err := e.Build(mustRecipe(t, "Bootstrap: library\nFrom: centos:7.4\n%runscript\n  echo first=$ARG1 second=$ARG2\n"), host, BuildContext{}, "args", "1")
	if err != nil {
		t.Fatal(err)
	}
	run, err := e.Run(res.Image, host, RunOptions{Args: []string{"one", "two"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(run.Stdout, "first=one second=two") {
		t.Errorf("stdout = %q", run.Stdout)
	}
}

func TestBuildCache(t *testing.T) {
	e := NewEngine()
	host := buildHost(t)
	rcp := mustRecipe(t, helloRecipe)
	first, err := e.Build(rcp, host, BuildContext{}, "hello", "latest")
	if err != nil {
		t.Fatal(err)
	}
	if e.CacheHits() != 0 {
		t.Errorf("cache hits after cold build = %d", e.CacheHits())
	}
	second, err := e.Build(rcp, host, BuildContext{}, "hello", "latest")
	if err != nil {
		t.Fatal(err)
	}
	if e.CacheHits() != 1 {
		t.Errorf("cache hits after warm build = %d", e.CacheHits())
	}
	if first != second {
		t.Error("warm build did not return the cached result")
	}
	// Different tag misses the cache.
	third, err := e.Build(rcp, host, BuildContext{}, "hello", "v2")
	if err != nil {
		t.Fatal(err)
	}
	if third == first || e.CacheHits() != 1 {
		t.Error("different tag served from cache")
	}
	// A different host hits too — the key carries only digest-relevant
	// inputs — but the returned provenance names the requesting host.
	other, err := hostenv.ByName(hostenv.CentOS76)
	if err != nil {
		t.Fatal(err)
	}
	other.InstallSingularity()
	fourth, err := e.Build(rcp, other, BuildContext{}, "hello", "latest")
	if err != nil {
		t.Fatal(err)
	}
	if e.CacheHits() != 2 {
		t.Errorf("cross-host build did not hit the cache: hits = %d", e.CacheHits())
	}
	if fourth.Image.Meta.BuildHost != other.Name {
		t.Errorf("cached provenance leaked across hosts: %q", fourth.Image.Meta.BuildHost)
	}
	if first.Image.Meta.BuildHost != host.Name {
		t.Errorf("cross-host hit mutated the cached result's provenance: %q", first.Image.Meta.BuildHost)
	}
	if fourth.Digest != first.Digest {
		t.Error("digest differs across hosts")
	}
	// Cached images remain immune to run mutation.
	if _, err := e.Run(second.Image, host, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	after, _ := second.Image.Digest()
	if after != first.Digest {
		t.Error("run mutated cached image")
	}
}

func TestDeterministicBuildDigestAcrossHosts(t *testing.T) {
	// The same recipe built on different hosts yields the same digest —
	// the content-addressed form of "containers behave identically
	// everywhere".
	e := NewEngine()
	var digests []string
	for _, name := range []string{hostenv.BuildHost, hostenv.Ubuntu1804, hostenv.GCPInstance} {
		host, err := hostenv.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		host.InstallSingularity()
		res, err := e.Build(mustRecipe(t, helloRecipe), host, BuildContext{}, "hello", "latest")
		if err != nil {
			t.Fatalf("build on %s: %v", name, err)
		}
		digests = append(digests, res.Digest)
	}
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			t.Errorf("digest differs across build hosts: %s vs %s", digests[i], digests[0])
		}
	}
}
