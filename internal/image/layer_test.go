package image

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vfs"
)

// buildSnapshots grows a filesystem through n random stages, returning
// the snapshot after each stage.
func buildSnapshots(rnd *rand.Rand, n int) []*vfs.FS {
	fs := vfs.New()
	var snaps []*vfs.FS
	for i := 0; i < n; i++ {
		dir := "/opt/stage" + string(rune('a'+i))
		fs.MkdirAll(dir, 0o755)
		for j := 0; j < 1+rnd.Intn(3); j++ {
			data := make([]byte, rnd.Intn(128))
			rnd.Read(data)
			fs.WriteFile(dir+"/f"+string(rune('0'+j)), data, 0o644)
		}
		if rnd.Intn(2) == 0 && i > 0 {
			// Occasionally delete something from a prior stage so the
			// changesets exercise whiteouts.
			fs.RemoveAll("/opt/stage" + string(rune('a'+i-1)) + "/f0")
		}
		snaps = append(snaps, fs.Clone())
	}
	return snaps
}

func layeredSample(t *testing.T, seed int64, stages int) *Image {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	snaps := buildSnapshots(rnd, stages)
	layers, err := LayersFromSnapshots(snaps)
	if err != nil {
		t.Fatal(err)
	}
	img := sampleImage()
	img.FS = snaps[len(snaps)-1]
	img.Layers = layers
	return img
}

func TestLayeredRoundTripBitIdentical(t *testing.T) {
	img := layeredSample(t, 1, 4)
	wantDigest, err := img.Digest()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := img.MarshalLayered()
	if err != nil {
		t.Fatal(err)
	}
	back, d, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if d != wantDigest {
		t.Fatalf("Unmarshal returned digest %s, want %s", d, wantDigest)
	}
	if !back.Layered() || len(back.Layers) != 4 {
		t.Fatalf("decoded image has %d layers, want 4", len(back.Layers))
	}
	if !vfs.Equal(back.FS, img.FS) {
		t.Fatal("flattened filesystem differs after layered round trip")
	}
	if err := back.VerifyDigest(wantDigest); err != nil {
		t.Fatal(err)
	}
	blob2, err := back.MarshalLayered()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("layered encoding is not byte-stable across a round trip")
	}
}

func TestLayerizePreservesLegacyDigest(t *testing.T) {
	mono := sampleImage()
	legacyBlob, err := mono.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	legacyDigest, err := mono.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if err := mono.Layerize(); err != nil {
		t.Fatal(err)
	}
	if len(mono.Layers) != 1 {
		t.Fatalf("Layerize produced %d layers, want 1", len(mono.Layers))
	}
	// The monolithic encoding and digest are untouched by layering.
	blob2, err := mono.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacyBlob, blob2) {
		t.Fatal("Layerize changed the legacy encoding")
	}
	layered, err := mono.MarshalLayered()
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := Unmarshal(layered)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.VerifyDigest(legacyDigest); err != nil {
		t.Fatalf("single-layer image lost the legacy digest: %v", err)
	}
	// And flattening back to SCIF1 is byte-identical to the original.
	flat, err := back.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flat, legacyBlob) {
		t.Fatal("flattened SCIF1 encoding differs from the original")
	}
}

// TestQuickSplitMergeRoundTrip is the satellite property test: any image,
// split into any stage-chain of layers, merges back bit-identical — the
// layered manifest digest is stable and the legacy monolithic digest is
// preserved.
func TestQuickSplitMergeRoundTrip(t *testing.T) {
	prop := func(seed int64, nStages uint8) bool {
		stages := 1 + int(nStages%5)
		rnd := rand.New(rand.NewSource(seed))
		snaps := buildSnapshots(rnd, stages)
		layers, err := LayersFromSnapshots(snaps)
		if err != nil {
			return false
		}
		img := sampleImage()
		img.FS = snaps[len(snaps)-1]

		legacyDigest, err := img.Digest()
		if err != nil {
			return false
		}
		img.Layers = layers
		m1, err := img.Manifest()
		if err != nil {
			return false
		}
		md1, err := m1.Digest()
		if err != nil {
			return false
		}
		blob, err := img.MarshalLayered()
		if err != nil {
			return false
		}
		back, _, err := Unmarshal(blob)
		if err != nil {
			return false
		}
		// Merge reproduces the exact filesystem and legacy digest.
		if !vfs.Equal(back.FS, img.FS) {
			return false
		}
		if err := back.VerifyDigest(legacyDigest); err != nil {
			return false
		}
		// Manifest digest is stable across the round trip.
		m2, err := back.Manifest()
		if err != nil {
			return false
		}
		md2, err := m2.Digest()
		if err != nil {
			return false
		}
		if md1 != md2 {
			return false
		}
		// And the layered encoding itself is bit-identical.
		blob2, err := back.MarshalLayered()
		if err != nil {
			return false
		}
		return bytes.Equal(blob, blob2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestManifestDigestIgnoresBuildHost(t *testing.T) {
	a := layeredSample(t, 3, 2)
	b := layeredSample(t, 3, 2)
	b.Meta.BuildHost = "somewhere-else"
	ma, err := a.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	da, err := ma.Digest()
	if err != nil {
		t.Fatal(err)
	}
	db, err := mb.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatal("manifest digest depends on BuildHost")
	}
}

func TestUnmarshalLayeredRejectsTamper(t *testing.T) {
	img := layeredSample(t, 5, 3)
	blob, err := img.MarshalLayered()
	if err != nil {
		t.Fatal(err)
	}
	manifest, frames, err := LayeredFrames(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the last layer: the layer digest check
	// must refuse it.
	tampered := append([]byte(nil), frames[len(frames)-1]...)
	tampered[len(tampered)/2] ^= 0xff
	framesT := append(append([][]byte(nil), frames[:len(frames)-1]...), tampered)
	if _, _, err := Unmarshal(AssembleLayered(manifest, framesT)); err == nil {
		t.Fatal("tampered layer accepted")
	}
	// Dropping a layer breaks the manifest/frame count check.
	if _, _, err := Unmarshal(AssembleLayered(manifest, frames[:len(frames)-1])); err == nil {
		t.Fatal("dropped layer accepted")
	}
	// A wrong imageDigest in the manifest must be caught after flattening.
	m, err := ParseManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	m.ImageDigest = "sha256:0000000000000000000000000000000000000000000000000000000000000000"
	badManifest, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Unmarshal(AssembleLayered(badManifest, frames)); err == nil {
		t.Fatal("wrong imageDigest accepted")
	}
}

func TestDecodeLayerRejectsGarbage(t *testing.T) {
	if _, err := DecodeLayer(nil); err == nil {
		t.Fatal("nil layer accepted")
	}
	if _, err := DecodeLayer([]byte("SCL1\nnot-a-changeset")); err == nil {
		t.Fatal("garbage layer accepted")
	}
}
