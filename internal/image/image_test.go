package image

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vfs"
)

func sampleImage() *Image {
	fs := vfs.New()
	fs.MkdirAll("/opt/app", 0o755)
	fs.WriteFile("/opt/app/bin", []byte("#!app:solver\n"), 0o755)
	return &Image{
		Meta: Metadata{
			Name: "pepa", Tag: "latest", BaseRef: "centos:7.4",
			Labels:      map[string]string{"Maintainer": "wss2"},
			Environment: "export LC_ALL=C",
			Runscript:   "/opt/app/bin $ARG1",
			BuildHost:   "centos-7.4-proliant",
		},
		FS: fs,
	}
}

func TestDigestStable(t *testing.T) {
	a, err := sampleImage().Digest()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampleImage().Digest()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("digest not stable: %s vs %s", a, b)
	}
	if !strings.HasPrefix(a, "sha256:") || len(a) != len("sha256:")+64 {
		t.Errorf("digest format: %q", a)
	}
}

func TestDigestIgnoresBuildHost(t *testing.T) {
	a := sampleImage()
	b := sampleImage()
	b.Meta.BuildHost = "gcp-n1-standard-8"
	da, _ := a.Digest()
	db, _ := b.Digest()
	if da != db {
		t.Error("digest depends on build host (breaks cross-platform identity)")
	}
}

func TestDigestSensitiveToContent(t *testing.T) {
	base, _ := sampleImage().Digest()
	mutations := []func(*Image){
		func(i *Image) { i.FS.WriteFile("/opt/app/bin", []byte("#!app:other\n"), 0o755) },
		func(i *Image) { i.FS.WriteFile("/extra", []byte("x"), 0o644) },
		func(i *Image) { i.Meta.Runscript = "changed" },
		func(i *Image) { i.Meta.Environment = "export X=1" },
		func(i *Image) { i.Meta.Tag = "v2" },
		func(i *Image) { i.Meta.Labels["Maintainer"] = "other" },
	}
	for k, mut := range mutations {
		img := sampleImage()
		mut(img)
		d, err := img.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if d == base {
			t.Errorf("mutation %d did not change digest", k)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	img := sampleImage()
	blob, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, d, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.Name != img.Meta.Name || back.Meta.Tag != img.Meta.Tag ||
		back.Meta.Runscript != img.Meta.Runscript || back.Meta.BuildHost != img.Meta.BuildHost ||
		back.Meta.Labels["Maintainer"] != img.Meta.Labels["Maintainer"] {
		t.Error("metadata changed in round trip")
	}
	if !vfs.Equal(img.FS, back.FS) {
		t.Error("filesystem changed in round trip")
	}
	d1, _ := img.Digest()
	d2, _ := back.Digest()
	if d1 != d2 || d != d1 {
		t.Errorf("digest changed across marshal round trip: %s, decoded %s, returned %s", d1, d2, d)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, _, err := Unmarshal([]byte("not an image")); err == nil {
		t.Error("bad magic accepted")
	}
	img := sampleImage()
	blob, _ := img.Marshal()
	if _, _, err := Unmarshal(blob[:len(blob)-4]); err == nil {
		t.Error("truncated blob accepted")
	}
	if _, _, err := Unmarshal(append(blob, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestVerifyDigest(t *testing.T) {
	img := sampleImage()
	d, _ := img.Digest()
	if err := img.VerifyDigest(d); err != nil {
		t.Errorf("self-verify failed: %v", err)
	}
	if err := img.VerifyDigest("sha256:0000"); err == nil {
		t.Error("wrong digest verified")
	}
}

func TestRef(t *testing.T) {
	if got := sampleImage().Ref(); got != "pepa:latest" {
		t.Errorf("Ref = %q", got)
	}
}

func TestDigestEqualityIffContentEqualityProperty(t *testing.T) {
	f := func(aContent, bContent []byte, sameMeta bool) bool {
		mk := func(content []byte) *Image {
			fs := vfs.New()
			fs.WriteFile("/f", content, 0o644)
			return &Image{Meta: Metadata{Name: "x", Tag: "y"}, FS: fs}
		}
		a, b := mk(aContent), mk(bContent)
		if !sameMeta {
			b.Meta.Tag = "z"
		}
		da, err1 := a.Digest()
		db, err2 := b.Digest()
		if err1 != nil || err2 != nil {
			return false
		}
		contentEqual := string(aContent) == string(bContent) && sameMeta
		return (da == db) == contentEqual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
