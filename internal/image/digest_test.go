package image

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// bufferedDigest is the digest as first defined: render the whole tar
// with MarshalTar, then hash magic, meta length and JSON, tar length and
// tar bytes. Digest streams the tar instead and must agree with it on
// every image.
func bufferedDigest(img *Image) (string, error) {
	tarBytes, err := img.FS.MarshalTar()
	if err != nil {
		return "", err
	}
	metaBytes, err := json.Marshal(digestMetaOf(img.Meta))
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(magic))
	binary.Write(h, binary.BigEndian, uint64(len(metaBytes)))
	h.Write(metaBytes)
	binary.Write(h, binary.BigEndian, uint64(len(tarBytes)))
	h.Write(tarBytes)
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// checkDigestOracle fails t unless Digest equals bufferedDigest on img.
func checkDigestOracle(t testing.TB, name string, img *Image) {
	t.Helper()
	want, err := bufferedDigest(img)
	if err != nil {
		t.Fatalf("%s: buffered digest: %v", name, err)
	}
	got, err := img.Digest()
	if err != nil {
		t.Fatalf("%s: digest: %v", name, err)
	}
	if got != want {
		t.Fatalf("%s: Digest = %s, buffered oracle = %s", name, got, want)
	}
}

func TestDigestMatchesBufferedOracle(t *testing.T) {
	checkDigestOracle(t, "sample", sampleImage())
	checkDigestOracle(t, "empty", &Image{FS: vfs.New()})

	// Each case holds one entry that USTAR cannot describe, so the tar
	// writer must emit a PAX extended header for it.
	long := strings.Repeat("x", 100)
	pax := []struct {
		name  string
		build func(fs *vfs.FS) error
	}{
		// One component of 120 bytes: USTAR's 100-byte name field cannot
		// hold it and there is no '/' at which to split off a prefix.
		{"long-name", func(fs *vfs.FS) error {
			return fs.WriteFile("/"+long+"yyyyyyyyyyyyyyyyyyyy", []byte("long"), 0o644)
		}},
		{"non-ascii-name", func(fs *vfs.FS) error {
			if err := fs.MkdirAll("/données", 0o755); err != nil {
				return err
			}
			return fs.WriteFile("/données/modèle.pepa", []byte("P = (a, 1.0).P;\nP\n"), 0o644)
		}},
		{"long-link-target", func(fs *vfs.FS) error {
			return fs.Symlink("/opt/"+long+"/bin", "/link")
		}},
		{"large-uid", func(fs *vfs.FS) error {
			if err := fs.WriteFile("/owned", []byte("uid"), 0o600); err != nil {
				return err
			}
			n, err := fs.Lstat("/owned")
			if err != nil {
				return err
			}
			n.UID = 2097152 // one past USTAR's 7-digit octal maximum
			return nil
		}},
	}
	for _, c := range pax {
		fs := vfs.New()
		if err := c.build(fs); err != nil {
			t.Fatal(err)
		}
		img := &Image{Meta: Metadata{Name: "pax", Tag: "latest"}, FS: fs}
		tarBytes, err := img.FS.MarshalTar()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(tarBytes, []byte("PaxHeaders.0")) {
			t.Fatalf("%s: tar stream carries no PAX extended header", c.name)
		}
		checkDigestOracle(t, c.name, img)
	}
}
