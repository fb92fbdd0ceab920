package hostenv

import (
	"strings"
	"testing"

	"repro/internal/pkgmgr"
	"repro/internal/vfs"
)

func TestProfilesMatchPaperMatrix(t *testing.T) {
	hs := Profiles()
	if len(hs) != 7 {
		t.Fatalf("profiles = %d, want 7", len(hs))
	}
	if hs[0].Name != BuildHost {
		t.Errorf("first profile = %q, want build host", hs[0].Name)
	}
	if hs[0].CPUs != 20 || hs[0].MemGB != 256 {
		t.Errorf("build host hardware = %d cpus / %d GB, want 20/256", hs[0].CPUs, hs[0].MemGB)
	}
	var cloud *Host
	for _, h := range hs {
		if h.Cloud {
			cloud = h
		}
	}
	if cloud == nil || cloud.CPUs != 8 || cloud.MemGB != 30 {
		t.Errorf("GCP profile wrong: %+v", cloud)
	}
}

func TestNativeInstallMatrix(t *testing.T) {
	// The crux of the paper's motivation: native installs succeed on the
	// older platforms and fail on the newer ones.
	cases := []struct {
		host string
		tool string
		ok   bool
	}{
		{BuildHost, pkgmgr.PkgPEPAPlugin, true},
		{CentOS76, pkgmgr.PkgPEPAPlugin, true},
		{Ubuntu1604, pkgmgr.PkgPEPAPlugin, true},
		{Debian96, pkgmgr.PkgPEPAPlugin, true},
		{Ubuntu1804, pkgmgr.PkgPEPAPlugin, false}, // Eclipse 4.2/4.4 dropped
		{Mint191, pkgmgr.PkgPEPAPlugin, false},

		{BuildHost, pkgmgr.PkgBioPEPA, true},
		{Debian96, pkgmgr.PkgBioPEPA, false}, // JDK 6/7 dropped
		{Ubuntu1804, pkgmgr.PkgBioPEPA, false},

		{BuildHost, pkgmgr.PkgGPAnalyser, true},
		{Ubuntu1804, pkgmgr.PkgGPAnalyser, false}, // vis-toolkit 2.3 dropped
		{GCPInstance, pkgmgr.PkgGPAnalyser, true},
	}
	for _, c := range cases {
		h, err := ByName(c.host)
		if err != nil {
			t.Fatal(err)
		}
		err = h.NativeInstall(c.tool)
		if c.ok && err != nil {
			t.Errorf("%s on %s: unexpected failure: %v", c.tool, c.host, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s on %s: install succeeded, want dependency failure", c.tool, c.host)
		}
	}
}

func TestEveryHostCanInstallSingularity(t *testing.T) {
	// The paper's premise: the only host requirement is the container
	// runtime, and every platform can satisfy it.
	for _, h := range Profiles() {
		if err := h.InstallSingularity(); err != nil {
			t.Errorf("%s cannot install singularity: %v", h.Name, err)
		}
		if !h.HasSingularity() {
			t.Errorf("%s: singularity binary missing after install", h.Name)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	h, _ := ByName(BuildHost)
	c := h.Clone()
	c.FS.WriteFile("/etc/marker", []byte("x"), 0o644)
	if h.FS.Exists("/etc/marker") {
		t.Error("clone shares filesystem with original")
	}
}

func TestBaseImages(t *testing.T) {
	bases := BaseImages()
	if _, ok := bases["centos:7.4"]; !ok {
		t.Fatal("centos:7.4 base missing")
	}
	fs := bases["centos:7.4"].FS()
	if !fs.Exists("/etc/os-release") {
		t.Error("base image lacks os-release")
	}
	// The base repo must be able to host the full PEPA toolchain — the
	// build-time guarantee containers rely on.
	for _, tool := range []string{pkgmgr.PkgPEPAPlugin, pkgmgr.PkgBioPEPA, pkgmgr.PkgGPAnalyser} {
		if _, err := pkgmgr.Resolve(bases["centos:7.4"].Repo, []pkgmgr.Dependency{pkgmgr.Any(tool)}); err != nil {
			t.Errorf("base repo cannot resolve %s: %v", tool, err)
		}
	}
	names := BaseImageNames()
	if len(names) < 2 {
		t.Errorf("base image names = %v", names)
	}
}

// wantProfiles pins the seven profiles of the §III matrix in matrix
// order: metadata, repository name, and each package's version list
// ("name=v1,v2" in name order).
var wantProfiles = []struct {
	name, os, kernel string
	cpus, memGB      int
	cloud            bool
	user, repo       string
	packages         string
}{
	{"centos-7.4-proliant", "CentOS Linux 7.4", "3.10.0-693", 20, 256, false, "modeler", "centos-7.4",
		"biopepa-eclipse-plugin=0.9.2 coreutils=8.22.0,8.28.0 eclipse=3.6.2,4.2.0,4.4.2 glibc=2.17.0,2.23.0,2.27.0 gpanalyser=0.9.0 jdk=6.0.45,7.0.80,8.0.181 pepa-eclipse-plugin=1.5.0 pepa-modelchecker=0.3.0 singularity=2.5.2 vis-toolkit=2.3.0 x11-libs=1.6.0,1.19.0"},
	{"centos-7.6", "CentOS Linux 7.6", "3.10.0-957", 8, 64, false, "modeler", "centos-7.6",
		"biopepa-eclipse-plugin=0.9.2 coreutils=8.22.0,8.28.0 eclipse=3.6.2,4.2.0,4.4.2 glibc=2.17.0,2.23.0,2.27.0 gpanalyser=0.9.0 jdk=6.0.45,7.0.80,8.0.181 pepa-eclipse-plugin=1.5.0 pepa-modelchecker=0.3.0 singularity=2.5.2 vis-toolkit=2.3.0 x11-libs=1.6.0,1.19.0"},
	{"ubuntu-18.04-bionic", "Ubuntu 18.04 LTS Bionic Beaver", "4.15.0", 8, 32, false, "modeler", "ubuntu-18.04",
		"biopepa-eclipse-plugin=0.9.2 coreutils=8.22.0,8.28.0 eclipse=4.9.0 glibc=2.17.0,2.23.0,2.27.0 gpanalyser=0.9.0 jdk=8.0.181,11.0.2 pepa-eclipse-plugin=1.5.0 pepa-modelchecker=0.3.0 singularity=2.5.2 vis-toolkit=3.0.0 x11-libs=1.6.0,1.19.0"},
	{"ubuntu-16.04-xenial", "Ubuntu 16.04 LTS Xenial Xerus", "4.4.0", 4, 16, false, "modeler", "ubuntu-16.04",
		"biopepa-eclipse-plugin=0.9.2 coreutils=8.22.0,8.28.0 eclipse=4.2.0,4.4.2 glibc=2.17.0,2.23.0,2.27.0 gpanalyser=0.9.0 jdk=7.0.80,8.0.181 pepa-eclipse-plugin=1.5.0 pepa-modelchecker=0.3.0 singularity=2.5.2 vis-toolkit=2.3.0 x11-libs=1.6.0,1.19.0"},
	{"linuxmint-19.1-tessa", "Linux Mint 19.1 Tessa", "4.15.0", 4, 16, false, "modeler", "mint-19.1",
		"biopepa-eclipse-plugin=0.9.2 coreutils=8.22.0,8.28.0 eclipse=4.9.0 glibc=2.17.0,2.23.0,2.27.0 gpanalyser=0.9.0 jdk=8.0.181,11.0.2 pepa-eclipse-plugin=1.5.0 pepa-modelchecker=0.3.0 singularity=2.5.2 vis-toolkit=3.0.0 x11-libs=1.6.0,1.19.0"},
	{"debian-9.6-stretch", "Debian 9.6 Stretch", "4.9.0", 4, 16, false, "modeler", "debian-9.6",
		"biopepa-eclipse-plugin=0.9.2 coreutils=8.22.0,8.28.0 eclipse=4.2.0,4.4.2 glibc=2.17.0,2.23.0,2.27.0 gpanalyser=0.9.0 jdk=8.0.181 pepa-eclipse-plugin=1.5.0 pepa-modelchecker=0.3.0 singularity=2.5.2 vis-toolkit=2.3.0 x11-libs=1.6.0,1.19.0"},
	{"gcp-n1-standard-8", "CentOS Linux 7.6", "3.10.0-957", 8, 30, true, "modeler", "gcp-centos-7.6",
		"biopepa-eclipse-plugin=0.9.2 coreutils=8.22.0,8.28.0 eclipse=3.6.2,4.2.0,4.4.2 glibc=2.17.0,2.23.0,2.27.0 gpanalyser=0.9.0 jdk=6.0.45,7.0.80,8.0.181 pepa-eclipse-plugin=1.5.0 pepa-modelchecker=0.3.0 singularity=2.5.2 vis-toolkit=2.3.0 x11-libs=1.6.0,1.19.0"},
}

// packageVersions renders a repository's package version lists in the
// form wantProfiles records them.
func packageVersions(r *pkgmgr.Repository) string {
	var out []string
	for _, n := range r.Names() {
		var vs []string
		for _, v := range r.Versions(n) {
			vs = append(vs, v.String())
		}
		out = append(out, n+"="+strings.Join(vs, ","))
	}
	return strings.Join(out, " ")
}

// TestByName: every name builds the host Profiles builds at its index,
// with the pinned metadata and package versions, in Names order.
func TestByName(t *testing.T) {
	all := Profiles()
	names := Names()
	if len(all) != len(wantProfiles) || len(names) != len(wantProfiles) {
		t.Fatalf("%d profiles and %d names, want %d", len(all), len(names), len(wantProfiles))
	}
	for i, want := range wantProfiles {
		if names[i] != want.name {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], want.name)
		}
		h, err := ByName(want.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*Host{h, all[i]} {
			if got.Name != want.name || got.OS != want.os || got.Kernel != want.kernel ||
				got.CPUs != want.cpus || got.MemGB != want.memGB || got.Cloud != want.cloud ||
				got.User != want.user || got.Repo.Name != want.repo {
				t.Errorf("%s: got %+v", want.name, got)
			}
			if pk := packageVersions(got.Repo); pk != want.packages {
				t.Errorf("%s: packages\n got %s\nwant %s", want.name, pk, want.packages)
			}
			rel, err := got.FS.ReadFile("/etc/os-release")
			if err != nil || string(rel) != "NAME="+want.os+"\n" {
				t.Errorf("%s: os-release = %q, %v", want.name, rel, err)
			}
		}
		if !vfs.Equal(h.FS, all[i].FS) {
			t.Errorf("%s: ByName and Profiles filesystems differ", want.name)
		}
	}
	if _, err := ByName("amiga-os"); err == nil {
		t.Error("unknown profile accepted")
	}
}

// TestFreshProfilesEachCall: two ByName calls share nothing, so editing
// one host's filesystem or repository leaves the next call pristine.
func TestFreshProfilesEachCall(t *testing.T) {
	for _, name := range Names() {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pristine := packageVersions(a.Repo)
		if err := a.FS.WriteFile("/etc/dirty", []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		a.Repo.Remove(pkgmgr.PkgSingularity)
		a.Repo.RemoveVersion(pkgmgr.PkgGlibc, pkgmgr.V(2, 17, 0))
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.FS.Exists("/etc/dirty") {
			t.Errorf("%s: filesystem edit leaked into the next ByName", name)
		}
		if got := packageVersions(b.Repo); got != pristine {
			t.Errorf("%s: repository edit leaked into the next ByName:\n got %s\nwant %s", name, got, pristine)
		}
	}
}

// TestByNameBuildsOneProfile pins that ByName builds only the host it
// returns: building all seven and keeping one allocates about as much
// as Profiles does.
func TestByNameBuildsOneProfile(t *testing.T) {
	one := testing.Benchmark(BenchmarkHostByName).AllocedBytesPerOp()
	all := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(Profiles()) == 0 {
				b.Fatal("no profiles")
			}
		}
	}).AllocedBytesPerOp()
	t.Logf("ByName allocates %d B/op, Profiles %d B/op", one, all)
	if one*3 >= all {
		t.Errorf("ByName allocates %d B/op, want under a third of Profiles' %d B/op", one, all)
	}
}

func BenchmarkHostByName(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ByName(Debian96); err != nil {
			b.Fatal(err)
		}
	}
}
