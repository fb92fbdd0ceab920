package hub

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/image"
	"repro/internal/vfs"
)

// layeredTestImage builds an image with one layer per stage content:
// identical stage prefixes produce identical (shared) layers.
func layeredTestImage(t *testing.T, name, tag string, stages ...string) *image.Image {
	t.Helper()
	snaps := make([]*vfs.FS, 0, len(stages))
	fs := vfs.New()
	for i, content := range stages {
		fs = fs.Clone()
		if err := fs.WriteFile(fmt.Sprintf("/stage%d", i), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, fs)
	}
	layers, err := image.LayersFromSnapshots(snaps)
	if err != nil {
		t.Fatal(err)
	}
	meta := image.Metadata{Name: name, Tag: tag, BaseRef: "centos:7.4", BuildHost: "centos-7.4-proliant"}
	img, err := image.AssembleFromLayers(meta, layers)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestLayeredPushPullRoundTrip(t *testing.T) {
	c, store, done := newTestClient(t)
	defer done()
	img := layeredTestImage(t, "pepa", "latest", "base", "deps", "solver")
	localDigest, err := img.Digest()
	if err != nil {
		t.Fatal(err)
	}

	digest, err := c.Push("pepa-tools", img)
	if err != nil {
		t.Fatal(err)
	}
	if digest != localDigest {
		t.Errorf("push digest = %s, want %s", digest, localDigest)
	}

	// The committed blob is exactly the client's layered serialization.
	blob, _, ok := store.Get("pepa-tools", "pepa", "latest")
	if !ok {
		t.Fatal("entry missing after layered push")
	}
	if !image.IsLayered(blob) {
		t.Fatal("stored blob is not in layered form")
	}
	want, err := img.MarshalLayered()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(want) {
		t.Error("stored blob differs from local layered serialization")
	}
	entries := store.List("pepa-tools")
	if len(entries) != 1 || entries[0].Layers != 3 {
		t.Errorf("entries = %+v, want one entry with 3 layers", entries)
	}

	// A fresh client reassembles the image from its layers.
	c2 := NewClient(strings.TrimSuffix(c.baseURL, "/"))
	pulled, gotDigest, err := c2.Pull("pepa-tools", "pepa", "latest", localDigest)
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != localDigest {
		t.Errorf("pull digest = %s, want %s", gotDigest, localDigest)
	}
	for i, content := range []string{"base", "deps", "solver"} {
		data, err := pulled.FS.ReadFile(fmt.Sprintf("/stage%d", i))
		if err != nil || string(data) != content {
			t.Errorf("stage%d = %q, %v; want %q", i, data, err, content)
		}
	}
	if len(pulled.Layers) != 3 {
		t.Errorf("pulled image carries %d layers, want 3", len(pulled.Layers))
	}

}

func TestLayeredPushTransfersOnlyMissingLayers(t *testing.T) {
	c, store, done := newTestClient(t)
	defer done()
	a := layeredTestImage(t, "pepa", "v1", "base", "deps", "solver-v1")
	if _, err := c.Push("coll", a); err != nil {
		t.Fatal(err)
	}
	if got := store.LayerCount(); got != 3 {
		t.Fatalf("LayerCount = %d, want 3", got)
	}

	// The second image shares the first two layers; only the third
	// should cross the wire.
	b := layeredTestImage(t, "pepa", "v2", "base", "deps", "solver-v2")
	c.ResetAttemptLog()
	if _, err := c.Push("coll", b); err != nil {
		t.Fatal(err)
	}
	uploads := c.AttemptsMatching("pushlayer ")
	if len(uploads) != 1 {
		t.Errorf("pushed %d layers, want 1: %v", len(uploads), uploads)
	}
	if got := store.LayerCount(); got != 4 {
		t.Errorf("LayerCount = %d, want 4", got)
	}

	// Re-pushing the same image uploads nothing and is idempotent.
	c.ResetAttemptLog()
	if _, err := c.Push("coll", b); err != nil {
		t.Fatal(err)
	}
	if uploads := c.AttemptsMatching("pushlayer "); len(uploads) != 0 {
		t.Errorf("re-push uploaded %d layers, want 0: %v", len(uploads), uploads)
	}
}

func TestLayeredPullUsesLayerCache(t *testing.T) {
	c, _, done := newTestClient(t)
	defer done()
	a := layeredTestImage(t, "pepa", "v1", "base", "deps", "solver-v1")
	b := layeredTestImage(t, "pepa", "v2", "base", "deps", "solver-v2")
	da, _ := a.Digest()
	db, _ := b.Digest()
	if _, err := c.Push("coll", a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push("coll", b); err != nil {
		t.Fatal(err)
	}

	puller := NewClient(c.baseURL)
	if _, _, err := puller.Pull("coll", "pepa", "v1", da); err != nil {
		t.Fatal(err)
	}
	if got := puller.AttemptsMatching("pulllayer "); len(got) != 3 {
		t.Fatalf("cold pull fetched %d layers, want 3: %v", len(got), got)
	}
	puller.ResetAttemptLog()
	if _, _, err := puller.Pull("coll", "pepa", "v2", db); err != nil {
		t.Fatal(err)
	}
	if got := puller.AttemptsMatching("pulllayer "); len(got) != 1 {
		t.Errorf("warm pull fetched %d layers, want 1: %v", len(got), got)
	}
	if hits := puller.LayerCache().Hits(); hits < 2 {
		t.Errorf("layer cache hits = %d, want >= 2", hits)
	}
}

// TestPutStoresMonolithicBlobInLayeredForm: a SCIF1 blob is stored as
// its one-layer SCIF2 form under the same digest, and pulls back as the
// same image.
func TestPutStoresMonolithicBlobInLayeredForm(t *testing.T) {
	c, store, done := newTestClient(t)
	defer done()
	img := testImage("pepa", "latest", "monolithic")
	mono := mustBlob(t, img)
	digest, err := store.Put("coll", "pepa", "latest", mono)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := img.Digest(); digest != want {
		t.Errorf("digest = %s, want the SCIF1 digest %s", digest, want)
	}
	blob, _, _ := store.Get("coll", "pepa", "latest")
	if !image.IsLayered(blob) {
		t.Fatal("a SCIF1 blob was stored as SCIF1")
	}
	if want, err := img.MarshalLayered(); err != nil || string(blob) != string(want) {
		t.Errorf("stored bytes are not the one-layer SCIF2 form (%v)", err)
	}
	entries := store.List("coll")
	if len(entries) != 1 || entries[0].Layers != 1 || entries[0].Size != len(blob) {
		t.Errorf("entries = %+v, want one 1-layer entry of %d bytes", entries, len(blob))
	}

	pulled, gotDigest, err := c.Pull("coll", "pepa", "latest", digest)
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != digest {
		t.Errorf("pull digest = %s, want %s", gotDigest, digest)
	}
	if data, err := pulled.FS.ReadFile("/payload"); err != nil || string(data) != "monolithic" {
		t.Errorf("payload = %q, %v", data, err)
	}
}

func TestLayeredPushRenegotiatesOn412(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	inner := srv.Handler()
	var once sync.Once
	// Drop every staged layer just before the first manifest commit,
	// simulating a registry that lost its (non-durable) staging area
	// between negotiation and commit.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && strings.HasSuffix(r.URL.Path, "/manifest") {
			once.Do(func() {
				store.mu.Lock()
				store.layers = map[string][]byte{}
				store.mu.Unlock()
			})
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	img := layeredTestImage(t, "pepa", "latest", "base", "deps", "solver")
	localDigest, _ := img.Digest()
	digest, err := c.Push("coll", img)
	if err != nil {
		t.Fatal(err)
	}
	if digest != localDigest {
		t.Errorf("digest = %s, want %s", digest, localDigest)
	}
	// Two negotiation rounds: 3 uploads, a 412, then 3 re-uploads.
	if uploads := c.AttemptsMatching("pushlayer "); len(uploads) != 6 {
		t.Errorf("pushed %d layers across renegotiation, want 6: %v", len(uploads), uploads)
	}
	if _, _, ok := store.Get("coll", "pepa", "latest"); !ok {
		t.Error("entry missing after renegotiated push")
	}
}

func TestStoreIndexesLayersFromInstalledBlobs(t *testing.T) {
	img := layeredTestImage(t, "pepa", "latest", "base", "deps", "solver")
	blob, err := img.MarshalLayered()
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	if _, err := store.Put("coll", "pepa", "latest", blob); err != nil {
		t.Fatal(err)
	}
	if got := store.LayerCount(); got != 3 {
		t.Errorf("LayerCount = %d, want 3", got)
	}
	var digests []string
	for _, l := range img.Layers {
		digests = append(digests, l.Digest())
	}
	if missing := store.MissingLayers(digests); len(missing) != 0 {
		t.Errorf("MissingLayers = %v, want none", missing)
	}
	for _, l := range img.Layers {
		frame, ok := store.LayerBlob(l.Digest())
		if !ok || string(frame) != string(l.Bytes()) {
			t.Errorf("LayerBlob(%s) missing or differs", l.Digest())
		}
	}
}

// rotLayerFrame flips one byte in the middle of the indexed frame for
// digest, in place. Frames indexed from an installed blob alias it, so
// the blob rots with them.
func rotLayerFrame(t *testing.T, s *Store, digest string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	frame, ok := s.layers[digest]
	if !ok {
		t.Fatalf("layer %s not indexed", digest)
	}
	frame[len(frame)/2] ^= 0xff
}

// TestScrubDropsRottedLayerFrame: rot inside an indexed layer frame
// quarantines the image it aliases and drops exactly that frame, so a
// layered re-push uploads exactly that layer and repairs the entry.
func TestScrubDropsRottedLayerFrame(t *testing.T) {
	c, store, done := newTestClient(t)
	defer done()
	img := layeredTestImage(t, "pepa", "latest", "base", "deps", "solver")
	blob, err := img.MarshalLayered()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("coll", "pepa", "latest", blob); err != nil {
		t.Fatal(err)
	}
	rotted := img.Layers[1].Digest()
	rotLayerFrame(t, store, rotted)

	if r := store.ScrubOnce(nil); r.Corrupt != 1 {
		t.Fatalf("scrub report = %+v, want the image quarantined", r)
	}
	if _, ok := store.LayerBlob(rotted); ok {
		t.Error("rotted frame still indexed after scrub")
	}
	if got := store.LayerCount(); got != 2 {
		t.Errorf("LayerCount = %d, want the 2 intact frames", got)
	}

	if _, err := c.Push("coll", img); err != nil {
		t.Fatal(err)
	}
	uploads := c.AttemptsMatching("pushlayer ")
	if len(uploads) != 1 || !strings.Contains(uploads[0], rotted) {
		t.Errorf("re-push uploaded %v, want exactly layer %s", uploads, rotted)
	}
	if _, ok := store.QuarantineReason("coll", "pepa", "latest"); ok {
		t.Error("layered re-push did not repair the quarantine")
	}
	got, _, ok := store.Get("coll", "pepa", "latest")
	if !ok || string(got) != string(blob) {
		t.Error("repaired entry does not hold the original layered bytes")
	}
	if r := store.ScrubOnce(nil); r.Corrupt != 0 || r.Skipped != 0 || store.LayerCount() != 3 {
		t.Errorf("scrub after repair = %+v with %d layers, want clean with 3", r, store.LayerCount())
	}
}

// TestScrubRestoresSharedLayerFromHealthyBlob: when the rotted frame was
// indexed from one image but another, healthy image carries the same
// layer, the scrub re-indexes it from the intact copy instead of leaving
// the healthy image's layered pull without it.
func TestScrubRestoresSharedLayerFromHealthyBlob(t *testing.T) {
	store := NewStore()
	v1 := layeredTestImage(t, "pepa", "v1", "base", "deps", "solver-v1")
	v2 := layeredTestImage(t, "pepa", "v2", "base", "deps", "solver-v2")
	for _, img := range []*image.Image{v1, v2} {
		blob, err := img.MarshalLayered()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Put("coll", img.Meta.Name, img.Meta.Tag, blob); err != nil {
			t.Fatal(err)
		}
	}
	shared := v1.Layers[1].Digest()
	rotLayerFrame(t, store, shared) // the frame aliases v1's blob, indexed first

	if r := store.ScrubOnce(nil); r.Corrupt != 1 || r.Quarantined[0] != "coll/pepa:v1" {
		t.Fatalf("scrub report = %+v, want only v1 quarantined", r)
	}
	frame, ok := store.LayerBlob(shared)
	if !ok || layerContentDigest(frame) != shared {
		t.Fatal("shared layer not restored from the healthy image")
	}
	if got := store.LayerCount(); got != 4 {
		t.Errorf("LayerCount = %d, want 4", got)
	}
}

// TestPutStoresLayeredBlobWithoutImageDigest: a SCIF2 blob whose manifest
// omits ImageDigest is stored byte for byte under the digest computed
// from its flattened content, and scrubbing finds it healthy.
func TestPutStoresLayeredBlobWithoutImageDigest(t *testing.T) {
	img := layeredTestImage(t, "pepa", "latest", "base", "tools", "models")
	want, err := img.Digest()
	if err != nil {
		t.Fatal(err)
	}
	full, err := img.MarshalLayered()
	if err != nil {
		t.Fatal(err)
	}
	manifestBytes, frames, err := image.LayeredFrames(full)
	if err != nil {
		t.Fatal(err)
	}
	m, err := image.ParseManifest(manifestBytes)
	if err != nil {
		t.Fatal(err)
	}
	m.ImageDigest = ""
	bare, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	blob := image.AssembleLayered(bare, frames)

	store := NewStore()
	digest, err := store.Put("coll", "pepa", "latest", blob)
	if err != nil {
		t.Fatal(err)
	}
	if digest != want {
		t.Errorf("Put digest = %s, want the computed digest %s", digest, want)
	}
	stored, gotDigest, ok := store.Get("coll", "pepa", "latest")
	if !ok || gotDigest != want || string(stored) != string(blob) {
		t.Errorf("Get = %d bytes, %s, %v; want the pushed %d bytes under %s", len(stored), gotDigest, ok, len(blob), want)
	}
	if rep := store.ScrubOnce(nil); rep.Checked != 1 || rep.Corrupt != 0 {
		t.Errorf("scrub = %+v, want one healthy entry", rep)
	}
}
