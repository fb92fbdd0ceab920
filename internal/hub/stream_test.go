package hub

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/image"
)

func TestChunkDigests(t *testing.T) {
	blob := []byte("0123456789abcdef0123")
	m := chunkDigests(blob, 8)
	if len(m) != 3 { // 8 + 8 + 4
		t.Fatalf("chunks = %d, want 3", len(m))
	}
	// The final short chunk hashes only its own bytes.
	if m[2] == m[0] || m[0] != chunkDigests(blob[:8], 8)[0] {
		t.Error("chunk digests not positional over the blob")
	}
	if got := chunkDigests(nil, 8); len(got) != 0 {
		t.Errorf("empty blob produced %d chunks", len(got))
	}
}

func TestParseRange(t *testing.T) {
	cases := []struct {
		h               string
		size            int
		start, end      int
		ok, satisfiable bool
	}{
		{"", 100, 0, 0, false, true},
		{"bytes=0-", 100, 0, 100, true, true},
		{"bytes=40-", 100, 40, 100, true, true},
		{"bytes=40-59", 100, 40, 60, true, true},
		{"bytes=40-5000", 100, 40, 100, true, true},
		{"bytes=100-", 100, 0, 0, true, false}, // past the end
		{"bytes=-20", 100, 0, 0, false, true},  // suffix range: serve full
		{"bytes=0-10,20-30", 100, 0, 0, false, true},
		{"items=0-", 100, 0, 0, false, true},
		{"bytes=abc-", 100, 0, 0, false, true},
		{"bytes=9-5", 100, 0, 0, false, true},
	}
	for _, tc := range cases {
		start, end, ok, sat := parseRange(tc.h, tc.size)
		if start != tc.start || end != tc.end || ok != tc.ok || sat != tc.satisfiable {
			t.Errorf("parseRange(%q, %d) = (%d, %d, %v, %v), want (%d, %d, %v, %v)",
				tc.h, tc.size, start, end, ok, sat, tc.start, tc.end, tc.ok, tc.satisfiable)
		}
	}
}

// onlyLayer returns the digest and encoded bytes of the single layer of
// a stored one-layer entry.
func onlyLayer(t *testing.T, store *Store, coll, name, tag string) (string, []byte) {
	t.Helper()
	blob, _, ok := store.Get(coll, name, tag)
	if !ok {
		t.Fatalf("%s/%s:%s not stored", coll, name, tag)
	}
	_, frames, err := image.LayeredFrames(blob)
	if err != nil || len(frames) != 1 {
		t.Fatalf("stored blob has %d layers (%v), want 1", len(frames), err)
	}
	return layerContentDigest(frames[0]), frames[0]
}

// TestServeBlobRange exercises the raw HTTP surface of a layer GET: chunk
// manifest headers on every response, 206 + Content-Range for ranged
// requests, 416 for unsatisfiable ones.
func TestServeBlobRange(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	srv.ChunkSize = 64
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	img := testImage("app", "v1", strings.Repeat("range-payload ", 40))
	if _, err := store.Put("c", "app", "v1", mustBlob(t, img)); err != nil {
		t.Fatal(err)
	}
	digest, blob := onlyLayer(t, store, "c", "app", "v1")

	get := func(rangeHdr string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/_layers/"+digest, nil)
		if rangeHdr != "" {
			req.Header.Set("Range", rangeHdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	full := get("")
	if full.StatusCode != http.StatusOK {
		t.Fatalf("full GET = %d", full.StatusCode)
	}
	if got := full.Header.Get(headerDigest); got != digest {
		t.Errorf("digest header = %q, want %q", got, digest)
	}
	if got := full.Header.Get(headerChunkSize); got != "64" {
		t.Errorf("chunk size header = %q, want 64", got)
	}
	wantChunks := (len(blob) + 63) / 64
	if got := strings.Split(full.Header.Get(headerChunkList), ","); len(got) != wantChunks {
		t.Errorf("chunk list has %d digests, want %d", len(got), wantChunks)
	}
	if got := full.Header.Get("Accept-Ranges"); got != "bytes" {
		t.Errorf("Accept-Ranges = %q", got)
	}

	ranged := get("bytes=128-")
	if ranged.StatusCode != http.StatusPartialContent {
		t.Fatalf("ranged GET = %d, want 206", ranged.StatusCode)
	}
	wantCR := fmt.Sprintf("bytes 128-%d/%d", len(blob)-1, len(blob))
	if got := ranged.Header.Get("Content-Range"); got != wantCR {
		t.Errorf("Content-Range = %q, want %q", got, wantCR)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(ranged.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body.Bytes(), blob[128:]) {
		t.Error("ranged body does not match the layer suffix")
	}

	if resp := get(fmt.Sprintf("bytes=%d-", len(blob))); resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Errorf("past-the-end range = %d, want 416", resp.StatusCode)
	}
}

// TestSameImageFromTwoBuildHostsPullsFromBothCollections is a
// regression test: the same image pushed into two collections from two
// build hosts has one digest but two stored encodings (each records its
// build host), and a pull of each must verify against its own bytes.
func TestSameImageFromTwoBuildHostsPullsFromBothCollections(t *testing.T) {
	c, _, done := newTestClient(t)
	defer done()
	a := testImage("pepa", "latest", "same-solver")
	b := testImage("pepa", "latest", "same-solver")
	b.Meta.BuildHost = "ubuntu-16.04-xenial"
	da, err := c.Push("one", a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := c.Push("two", b)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("digests differ (%s, %s); the build host must not enter the digest", da, db)
	}
	for _, tc := range []struct {
		coll, host string
	}{{"one", a.Meta.BuildHost}, {"two", b.Meta.BuildHost}} {
		img, got, err := c.Pull(tc.coll, "pepa", "latest", da)
		if err != nil {
			t.Fatalf("pull of %s: %v", tc.coll, err)
		}
		if got != da || img.Meta.BuildHost != tc.host {
			t.Errorf("pull of %s = (%s, built on %s), want (%s, %s)", tc.coll, got, img.Meta.BuildHost, da, tc.host)
		}
	}
}

// rangeRecordingServer wraps a hub handler, recording the Range header of
// every incoming request.
type rangeRecordingServer struct {
	mu     sync.Mutex
	ranges []string
}

func (rr *rangeRecordingServer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rr.mu.Lock()
		rr.ranges = append(rr.ranges, r.Header.Get("Range"))
		rr.mu.Unlock()
		next.ServeHTTP(w, r)
	})
}

func (rr *rangeRecordingServer) recorded() []string {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return append([]string(nil), rr.ranges...)
}

// TestPullResumesFromVerifiedChunk: a truncated first read of a layer
// larger than ChunkSize leaves verified chunks behind; the retry must
// send a chunk-aligned Range request instead of re-reading from byte
// zero.
func TestPullResumesFromVerifiedChunk(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	srv.ChunkSize = 1024
	srv.EnableFaults(faultinject.NewPlan(21,
		faultinject.Rule{Match: "GET /v1/_layers/", Kind: faultinject.KindTruncate, First: 1},
	))
	rec := &rangeRecordingServer{}
	ts := httptest.NewServer(rec.wrap(srv.Handler()))
	defer ts.Close()

	img := testImage("pepa", "latest", strings.Repeat("resumable-payload ", 400))
	digest, err := store.Put("chaos", "pepa", "latest", mustBlob(t, img))
	if err != nil {
		t.Fatal(err)
	}
	layerDigest, layer := onlyLayer(t, store, "chaos", "pepa", "latest")
	if len(layer) <= 2*srv.ChunkSize {
		t.Fatalf("layer of %d bytes spans too few chunks", len(layer))
	}

	c := NewClientWithOptions(ts.URL, chaosOptions(4))
	pulled, gotDigest, err := c.Pull("chaos", "pepa", "latest", digest)
	if err != nil {
		t.Fatalf("pull did not converge: %v", err)
	}
	if gotDigest != digest {
		t.Errorf("digest = %s, want %s", gotDigest, digest)
	}
	if data, err := pulled.FS.ReadFile("/payload"); err != nil || !strings.HasPrefix(string(data), "resumable-payload ") {
		t.Errorf("payload = %.30q, err %v", data, err)
	}

	// Requests: the manifest, then the layer twice — attempt 1 full
	// (truncated), attempt 2 resumed.
	ranges := rec.recorded()
	if len(ranges) != 3 {
		t.Fatalf("server saw %d requests, want 3: %q", len(ranges), ranges)
	}
	if ranges[1] != "" {
		t.Errorf("first layer attempt sent Range %q, want none", ranges[1])
	}
	var off int
	if n, err := fmt.Sscanf(ranges[2], "bytes=%d-", &off); n != 1 || err != nil {
		t.Fatalf("second layer attempt Range = %q, want bytes=N-", ranges[2])
	}
	if off <= 0 || off%1024 != 0 {
		t.Errorf("resume offset %d not a positive chunk boundary", off)
	}
	if off >= len(layer) {
		t.Errorf("resume offset %d past layer end %d", off, len(layer))
	}
	log := strings.Join(c.AttemptsMatching("pulllayer "+layerDigest), "\n")
	if !strings.Contains(log, fmt.Sprintf("resuming from verified offset %d", off)) {
		t.Errorf("resume not logged:\n%s", log)
	}
	if !strings.Contains(log, "truncated response (transient)") {
		t.Errorf("truncation not classified transient:\n%s", log)
	}
}

// TestPullIncrementalCapAbort (satellite): a response of unbounded
// length must be aborted as soon as the cap is crossed, mid-stream — an
// endless body would otherwise hang the client forever.
func TestPullIncrementalCapAbort(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(headerDigest, "sha256:feedfeed")
		// One chunk larger than the cap: the body is framed, but no chunk
		// completes before the cap must cut the stream.
		w.Header().Set(headerChunkSize, strconv.Itoa(1<<20))
		w.Header().Set(headerChunkList, strings.Repeat("0", 64))
		fl, _ := w.(http.Flusher)
		chunk := bytes.Repeat([]byte("x"), 8<<10)
		for {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
			select {
			case <-r.Context().Done():
				return
			default:
			}
		}
	}))
	defer ts.Close()

	opts := chaosOptions(3)
	opts.MaxResponseBytes = 64 << 10
	c := NewClientWithOptions(ts.URL, opts)
	_, _, err := c.Pull("coll", "endless", "latest", "")
	if err == nil {
		t.Fatal("pull of an endless body succeeded")
	}
	if !strings.Contains(err.Error(), "65536-byte cap") {
		t.Errorf("err = %v, want response-cap error", err)
	}
	// The cap violation is deterministic: one attempt, no retries.
	log := c.AttemptsMatching("pull coll/endless:latest attempt")
	if len(log) != 1 || !strings.Contains(log[0], "deterministic; giving up") {
		t.Errorf("cap violation was retried:\n%s", strings.Join(log, "\n"))
	}
}

// TestPullLegacyServerWithoutManifest: a response that advertises no
// chunk framing is rejected as corrupt — every hub frames its blobs, so
// unframed bytes cannot be verified chunk by chunk and are never
// returned, even when the whole-image digest would match.
func TestPullLegacyServerWithoutManifest(t *testing.T) {
	img := testImage("app", "v1", "legacy-payload")
	blob := mustBlob(t, img)
	digest, err := img.Digest()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(headerDigest, digest)
		w.Write(blob)
	}))
	defer ts.Close()

	c := NewClientWithOptions(ts.URL, chaosOptions(2))
	pulled, _, err := c.Pull("c", "app", "v1", digest)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("pull of an unframed response = %v, want ErrCorrupt", err)
	}
	if pulled != nil {
		t.Error("unframed response returned an image")
	}
	if !strings.Contains(err.Error(), "no chunk manifest") {
		t.Errorf("err = %v, want it to name the missing chunk manifest", err)
	}
}

// TestPullToFileCrossProcessResume: a pull that dies mid-layer leaves a
// spool on disk; a brand-new client — as after a process restart —
// resumes that layer from the spooled verified offset instead of byte
// zero, writes exactly the stored bytes, then cleans the spool up.
func TestPullToFileCrossProcessResume(t *testing.T) {
	store := NewStore()
	img := testImage("pepa", "latest", strings.Repeat("spooled-payload ", 400))
	digest, err := store.Put("chaos", "pepa", "latest", mustBlob(t, img))
	if err != nil {
		t.Fatal(err)
	}
	stored, _, _ := store.Get("chaos", "pepa", "latest")
	_, layer := onlyLayer(t, store, "chaos", "pepa", "latest")
	dest := filepath.Join(t.TempDir(), "pepa.scif")

	// Process 1: every layer GET is truncated and the attempt budget is
	// 1, so the pull fails with partial verified progress spooled.
	srv1 := NewServer(store)
	srv1.ChunkSize = 512
	srv1.EnableFaults(faultinject.NewPlan(31,
		faultinject.Rule{Match: "GET /v1/_layers/", Kind: faultinject.KindTruncate, First: 100},
	))
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := NewClientWithOptions(ts1.URL, chaosOptions(1))
	if _, err := c1.PullToFile("chaos", "pepa", "latest", digest, dest); err == nil {
		t.Fatal("pull against an always-truncating server succeeded")
	}
	ts1.Close()
	spooled, err := os.ReadFile(dest + ".partial")
	if err != nil {
		t.Fatalf("no spool left behind: %v", err)
	}
	if len(spooled) == 0 || len(spooled)%512 != 0 || len(spooled) >= len(layer) {
		t.Fatalf("spool holds %d bytes, want a positive chunk-aligned partial of %d", len(spooled), len(layer))
	}
	if !bytes.Equal(spooled, layer[:len(spooled)]) {
		t.Fatal("spooled bytes do not match the layer prefix")
	}
	if _, err := os.Stat(dest + ".pullstate"); err != nil {
		t.Fatalf("no spool state left behind: %v", err)
	}

	// Process 2: a fresh client against a healthy server reads the
	// manifest, then resumes the layer from the spooled offset (observed
	// as a Range request) and completes.
	srv2 := NewServer(store)
	srv2.ChunkSize = 512
	rec := &rangeRecordingServer{}
	ts2 := httptest.NewServer(rec.wrap(srv2.Handler()))
	defer ts2.Close()
	c2 := NewClientWithOptions(ts2.URL, chaosOptions(3))
	got, err := c2.PullToFile("chaos", "pepa", "latest", digest, dest)
	if err != nil {
		t.Fatalf("resumed pull failed: %v", err)
	}
	if got != digest {
		t.Errorf("digest = %s, want %s", got, digest)
	}
	want := []string{"", fmt.Sprintf("bytes=%d-", len(spooled))}
	if ranges := rec.recorded(); !reflect.DeepEqual(ranges, want) {
		t.Errorf("resumed pull sent Range headers %q, want %q", ranges, want)
	}
	data, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, stored) {
		t.Error("the written file differs from the stored blob")
	}
	for _, leftover := range []string{dest + ".partial", dest + ".pullstate"} {
		if _, err := os.Stat(leftover); !os.IsNotExist(err) {
			t.Errorf("spool file %s not cleaned up", leftover)
		}
	}
}
