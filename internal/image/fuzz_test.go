package image

import (
	"encoding/json"
	"testing"
)

// FuzzUnmarshal checks the image decoder never panics on corrupt blobs and
// that valid images round-trip with stable digests, each equal to the one
// Unmarshal returned and to the buffered digest oracle. It covers both the
// legacy monolithic (SCIF1) and the layered (SCIF2) encodings.
func FuzzUnmarshal(f *testing.F) {
	good, err := sampleImage().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	layered, err := sampleImage().MarshalLayered()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte("SCIF1\n"))
	f.Add([]byte("SCIF2\n"))
	f.Add(good)
	f.Add(good[:len(good)-10])
	f.Add(layered)
	f.Add(layered[:len(layered)-7])
	f.Fuzz(func(t *testing.T, data []byte) {
		img, d0, err := Unmarshal(data)
		if err != nil {
			return
		}
		d1, err := img.Digest()
		if err != nil {
			t.Fatalf("digest of unmarshaled image failed: %v", err)
		}
		if d0 != d1 {
			t.Fatalf("Unmarshal returned digest %s, Digest %s", d0, d1)
		}
		checkDigestOracle(t, "accepted image", img)
		blob, err := img.Marshal()
		if err != nil {
			t.Fatalf("remarshal failed: %v", err)
		}
		_, d2, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if d1 != d2 {
			t.Fatal("digest not stable across round trip")
		}
	})
}

// FuzzManifest checks the layered-manifest decoder never panics and that
// accepted manifests re-encode canonically with a stable manifest digest.
// Seed corpus lives under testdata/fuzz/FuzzManifest.
func FuzzManifest(f *testing.F) {
	m, err := sampleImage().Manifest()
	if err != nil {
		f.Fatal(err)
	}
	goodManifest, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(goodManifest)
	f.Add([]byte("{}"))
	f.Add([]byte(`{"schemaVersion":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		d1, err := m.Digest()
		if err != nil {
			t.Fatalf("digest of accepted manifest failed: %v", err)
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-encoding accepted manifest failed: %v", err)
		}
		m2, err := ParseManifest(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding rejected: %v", err)
		}
		d2, err := m2.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Fatal("manifest digest not stable across round trip")
		}
	})
}
