// Package hostenv models the execution hosts of the paper's §III validation
// matrix: the CentOS 7.4 build server, the five Linux workstation profiles,
// and the Google Cloud instance. Each host carries its own distribution
// package repository — with the version skew that makes native installs of
// the PEPA toolchain fail on newer platforms — plus a root filesystem and
// hardware metadata.
package hostenv

import (
	"fmt"
	"sort"

	"repro/internal/pkgmgr"
	"repro/internal/vfs"
)

// Host is one execution platform.
type Host struct {
	Name   string // e.g. "centos-7.4-proliant"
	OS     string // e.g. "CentOS Linux 7.4"
	Kernel string
	CPUs   int
	MemGB  int
	Cloud  bool // true for the GCP instance
	// Repo is the distro package archive available to native installs.
	Repo *pkgmgr.Repository
	// FS is the host's root filesystem (base OS files preinstalled).
	FS *vfs.FS
	// User is the unprivileged account running experiments.
	User string
}

// Clone returns a deep copy of the host (fresh filesystem, shared repo).
func (h *Host) Clone() *Host {
	c := *h
	c.FS = h.FS.Clone()
	return &c
}

// String renders "name (OS, N cpus)".
func (h *Host) String() string {
	return fmt.Sprintf("%s (%s, %d cpus, %d GB)", h.Name, h.OS, h.CPUs, h.MemGB)
}

// NativeInstall resolves and installs a tool (and its dependency closure)
// from the host's own repository — the pre-container workflow whose
// failures motivate the paper.
func (h *Host) NativeInstall(tools ...string) error {
	var reqs []pkgmgr.Dependency
	for _, t := range tools {
		reqs = append(reqs, pkgmgr.Any(t))
	}
	plan, err := pkgmgr.Resolve(h.Repo, reqs)
	if err != nil {
		return fmt.Errorf("hostenv: native install of %v on %s: %w", tools, h.Name, err)
	}
	if err := pkgmgr.Install(h.FS, plan); err != nil {
		return fmt.Errorf("hostenv: native install of %v on %s: %w", tools, h.Name, err)
	}
	return nil
}

// HasSingularity reports whether the Singularity runtime is installed.
func (h *Host) HasSingularity() bool {
	return h.FS.Exists("/usr/bin/singularity")
}

// InstallSingularity installs the container runtime from the host repo.
// Every profile carries it (the paper's premise: the *only* host dependency
// is the containerization framework).
func (h *Host) InstallSingularity() error {
	return h.NativeInstall(pkgmgr.PkgSingularity)
}

// baseFS builds a minimal root filesystem for a distro.
func baseFS(osName string) *vfs.FS {
	fs := vfs.New()
	for _, d := range []string{"/bin", "/etc", "/home", "/opt", "/tmp", "/usr/bin", "/usr/lib", "/var/lib"} {
		fs.MkdirAll(d, 0o755)
	}
	fs.WriteFile("/etc/os-release", []byte("NAME="+osName+"\n"), 0o644)
	fs.WriteFile("/bin/sh", []byte("shell"), 0o755)
	return fs
}

// carve builds a distro repository from a fresh upstream universe by
// removing the packages/versions the distro no longer ships.
func carve(name string, remove func(*pkgmgr.Repository)) *pkgmgr.Repository {
	r := pkgmgr.Universe()
	r.Name = name
	remove(r)
	return r
}

// el7 is what the EL7 archives lack: EL7 never shipped JDK 11,
// Eclipse 4.9 or vis-toolkit 3.0.
func el7(r *pkgmgr.Repository) {
	r.RemoveVersion(pkgmgr.PkgJDK, pkgmgr.V(11, 0, 2))
	r.RemoveVersion(pkgmgr.PkgEclipse, pkgmgr.V(4, 9, 0))
	r.RemoveVersion(pkgmgr.PkgVisToolkit, pkgmgr.V(3, 0, 0))
}

// bionic is what Ubuntu 18.04 (and Mint 19.1, which tracks it) lacks: it
// dropped the legacy JDKs, old Eclipse lines, and vis-toolkit 2.x — the
// skew that breaks native installs.
func bionic(r *pkgmgr.Repository) {
	r.RemoveVersion(pkgmgr.PkgJDK, pkgmgr.V(6, 0, 45))
	r.RemoveVersion(pkgmgr.PkgJDK, pkgmgr.V(7, 0, 80))
	r.RemoveVersion(pkgmgr.PkgEclipse, pkgmgr.V(3, 6, 2))
	r.RemoveVersion(pkgmgr.PkgEclipse, pkgmgr.V(4, 2, 0))
	r.RemoveVersion(pkgmgr.PkgEclipse, pkgmgr.V(4, 4, 2))
	r.RemoveVersion(pkgmgr.PkgVisToolkit, pkgmgr.V(2, 3, 0))
}

// Profile names, matching §III of the paper.
const (
	BuildHost   = "centos-7.4-proliant" // HP ProLiant SL, Singularity built here
	CentOS76    = "centos-7.6"
	Ubuntu1804  = "ubuntu-18.04-bionic"
	Ubuntu1604  = "ubuntu-16.04-xenial"
	Mint191     = "linuxmint-19.1-tessa"
	Debian96    = "debian-9.6-stretch"
	GCPInstance = "gcp-n1-standard-8"
)

// profiles is the recipe for each host of the validation matrix, build
// host first: its metadata (Repo and FS unset), the name of its distro
// archive, and what that archive lacks relative to the universe.
var profiles = []struct {
	host   Host
	repo   string
	remove func(*pkgmgr.Repository)
}{
	{Host{Name: BuildHost, OS: "CentOS Linux 7.4", Kernel: "3.10.0-693", CPUs: 20, MemGB: 256, User: "modeler"},
		"centos-7.4", el7},
	{Host{Name: CentOS76, OS: "CentOS Linux 7.6", Kernel: "3.10.0-957", CPUs: 8, MemGB: 64, User: "modeler"},
		"centos-7.6", el7},
	{Host{Name: Ubuntu1804, OS: "Ubuntu 18.04 LTS Bionic Beaver", Kernel: "4.15.0", CPUs: 8, MemGB: 32, User: "modeler"},
		"ubuntu-18.04", bionic},
	{Host{Name: Ubuntu1604, OS: "Ubuntu 16.04 LTS Xenial Xerus", Kernel: "4.4.0", CPUs: 4, MemGB: 16, User: "modeler"},
		"ubuntu-16.04", func(r *pkgmgr.Repository) {
			r.RemoveVersion(pkgmgr.PkgJDK, pkgmgr.V(11, 0, 2))
			r.RemoveVersion(pkgmgr.PkgJDK, pkgmgr.V(6, 0, 45))
			r.RemoveVersion(pkgmgr.PkgEclipse, pkgmgr.V(3, 6, 2))
			r.RemoveVersion(pkgmgr.PkgEclipse, pkgmgr.V(4, 9, 0))
			r.RemoveVersion(pkgmgr.PkgVisToolkit, pkgmgr.V(3, 0, 0))
		}},
	{Host{Name: Mint191, OS: "Linux Mint 19.1 Tessa", Kernel: "4.15.0", CPUs: 4, MemGB: 16, User: "modeler"},
		"mint-19.1", bionic},
	{Host{Name: Debian96, OS: "Debian 9.6 Stretch", Kernel: "4.9.0", CPUs: 4, MemGB: 16, User: "modeler"},
		"debian-9.6", func(r *pkgmgr.Repository) {
			// Stretch ships only JDK 8 and keeps Eclipse Luna.
			r.RemoveVersion(pkgmgr.PkgJDK, pkgmgr.V(6, 0, 45))
			r.RemoveVersion(pkgmgr.PkgJDK, pkgmgr.V(7, 0, 80))
			r.RemoveVersion(pkgmgr.PkgJDK, pkgmgr.V(11, 0, 2))
			r.RemoveVersion(pkgmgr.PkgEclipse, pkgmgr.V(3, 6, 2))
			r.RemoveVersion(pkgmgr.PkgEclipse, pkgmgr.V(4, 9, 0))
			r.RemoveVersion(pkgmgr.PkgVisToolkit, pkgmgr.V(3, 0, 0))
		}},
	{Host{Name: GCPInstance, OS: "CentOS Linux 7.6", Kernel: "3.10.0-957", CPUs: 8, MemGB: 30, Cloud: true, User: "modeler"},
		"gcp-centos-7.6", el7},
}

// Profiles constructs the seven host profiles of the validation matrix.
// The returned slice is ordered with the build host first.
func Profiles() []*Host {
	hosts := make([]*Host, len(profiles))
	for i := range profiles {
		hosts[i] = newHost(i)
	}
	return hosts
}

// newHost constructs a fresh host from profiles[i].
func newHost(i int) *Host {
	p := &profiles[i]
	h := p.host
	h.Repo = carve(p.repo, p.remove)
	h.FS = baseFS(h.OS)
	return &h
}

// ByName returns the named profile (fresh instance) or an error.
func ByName(name string) (*Host, error) {
	for i := range profiles {
		if profiles[i].host.Name == name {
			return newHost(i), nil
		}
	}
	return nil, fmt.Errorf("hostenv: unknown host profile %q", name)
}

// Names lists all profile names in matrix order.
func Names() []string {
	out := make([]string, len(profiles))
	for i := range profiles {
		out[i] = profiles[i].host.Name
	}
	return out
}

// BaseImages maps "distro:version" bootstrap references to fresh base
// filesystems plus the repository a build on that base resolves against.
// This is the stand-in for pulling a base image from a library.
func BaseImages() map[string]struct {
	FS   func() *vfs.FS
	Repo *pkgmgr.Repository
} {
	centosRepo := carve("centos-7.4-base", el7)
	ubuntuRepo := carve("ubuntu-16.04-base", func(r *pkgmgr.Repository) {
		r.RemoveVersion(pkgmgr.PkgJDK, pkgmgr.V(11, 0, 2))
		r.RemoveVersion(pkgmgr.PkgEclipse, pkgmgr.V(4, 9, 0))
	})
	out := map[string]struct {
		FS   func() *vfs.FS
		Repo *pkgmgr.Repository
	}{
		"centos:7.4":   {FS: func() *vfs.FS { return baseFS("CentOS Linux 7.4") }, Repo: centosRepo},
		"ubuntu:16.04": {FS: func() *vfs.FS { return baseFS("Ubuntu 16.04 LTS") }, Repo: ubuntuRepo},
	}
	return out
}

// BaseImageNames lists the available bootstrap references, sorted.
func BaseImageNames() []string {
	m := BaseImages()
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
