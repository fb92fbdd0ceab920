package hub

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/image"
	"repro/internal/vfs"
)

func testImage(name, tag, content string) *image.Image {
	fs := vfs.New()
	fs.WriteFile("/payload", []byte(content), 0o644)
	return &image.Image{
		Meta: image.Metadata{Name: name, Tag: tag, BaseRef: "centos:7.4", BuildHost: "centos-7.4-proliant"},
		FS:   fs,
	}
}

func newTestClient(t *testing.T) (*Client, *Store, func()) {
	t.Helper()
	store := NewStore()
	ts := httptest.NewServer(NewServer(store).Handler())
	return NewClient(ts.URL), store, ts.Close
}

func TestPushPullRoundTrip(t *testing.T) {
	c, _, done := newTestClient(t)
	defer done()
	img := testImage("pepa", "latest", "solver-v1")
	digest, err := c.Push("pepa-tools", img)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(digest, "sha256:") {
		t.Errorf("digest = %q", digest)
	}
	pulled, gotDigest, err := c.Pull("pepa-tools", "pepa", "latest", digest)
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != digest {
		t.Errorf("pull digest = %s, want %s", gotDigest, digest)
	}
	data, err := pulled.FS.ReadFile("/payload")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "solver-v1" {
		t.Errorf("payload = %q", data)
	}
}

func TestPullUnknown(t *testing.T) {
	c, _, done := newTestClient(t)
	defer done()
	if _, _, err := c.Pull("nope", "x", "y", ""); err == nil {
		t.Error("pull of missing image succeeded")
	}
}

func TestPullWrongExpectedDigest(t *testing.T) {
	c, _, done := newTestClient(t)
	defer done()
	img := testImage("pepa", "latest", "v1")
	if _, err := c.Push("coll", img); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Pull("coll", "pepa", "latest", "sha256:deadbeef"); err == nil {
		t.Error("digest mismatch not detected")
	}
}

func TestListCollection(t *testing.T) {
	c, _, done := newTestClient(t)
	defer done()
	for _, spec := range []struct{ name, tag string }{
		{"pepa", "latest"}, {"biopepa", "latest"}, {"gpa", "latest"}, {"pepa", "v2"},
	} {
		if _, err := c.Push("pepa-tools", testImage(spec.name, spec.tag, spec.name+spec.tag)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := c.List("pepa-tools")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(entries))
	}
	// Sorted by container then tag.
	if entries[0].Container != "biopepa" || entries[1].Container != "gpa" {
		t.Errorf("order = %v", entries)
	}
	if entries[2].Tag != "latest" || entries[3].Tag != "v2" {
		t.Errorf("tag order = %v", entries)
	}
	for _, e := range entries {
		if e.Digest == "" || e.Size == 0 || e.BuildHost == "" {
			t.Errorf("entry incomplete: %+v", e)
		}
	}
}

func TestCollections(t *testing.T) {
	c, _, done := newTestClient(t)
	defer done()
	c.Push("zeta", testImage("a", "1", "x"))
	c.Push("alpha", testImage("b", "1", "y"))
	colls, err := c.Collections()
	if err != nil {
		t.Fatal(err)
	}
	if len(colls) != 2 || colls[0] != "alpha" || colls[1] != "zeta" {
		t.Errorf("collections = %v", colls)
	}
}

func TestListMissingCollection404(t *testing.T) {
	c, _, done := newTestClient(t)
	defer done()
	if _, err := c.List("ghost"); err == nil {
		t.Error("list of missing collection succeeded")
	}
}

func TestStoreRejectsMalformedBlob(t *testing.T) {
	store := NewStore()
	if _, err := store.Put("c", "n", "t", []byte("garbage")); err == nil {
		t.Error("malformed blob stored")
	}
}

func TestServerRejectsCorruptUpload(t *testing.T) {
	c, _, done := newTestClient(t)
	defer done()
	for _, path := range []string{"/v1/c/n/t/manifest", "/v1/_layers/sha256:00"} {
		req, _ := http.NewRequest(http.MethodPut, c.BaseURL+path, bytes.NewReader([]byte("garbage")))
		resp, err := c.HTTP.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("PUT %s = %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestImagePathOnlyDeletes: images move only by manifest and layer, so
// the bare image path answers GET, PUT and POST with 405.
func TestImagePathOnlyDeletes(t *testing.T) {
	c, _, done := newTestClient(t)
	defer done()
	if _, err := c.Push("coll", testImage("pepa", "latest", "v1")); err != nil {
		t.Fatal(err)
	}
	url := c.BaseURL + "/v1/coll/pepa/latest"
	for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodPost} {
		req, _ := http.NewRequest(method, url, bytes.NewReader([]byte("body")))
		resp, err := c.HTTP.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", method, url, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, url, nil)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("DELETE %s = %d, want 200", url, resp.StatusCode)
	}
}

func TestPushOverwritesTag(t *testing.T) {
	c, _, done := newTestClient(t)
	defer done()
	d1, err := c.Push("coll", testImage("app", "latest", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c.Push("coll", testImage("app", "latest", "v2"))
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Error("different content produced same digest")
	}
	_, got, err := c.Pull("coll", "app", "latest", "")
	if err != nil {
		t.Fatal(err)
	}
	if got != d2 {
		t.Errorf("latest digest = %s, want %s", got, d2)
	}
}

func TestConcurrentPushPull(t *testing.T) {
	// The store must tolerate concurrent pushes and pulls (the parallel
	// validation matrix pulls from many host workers at once).
	c, _, done := newTestClient(t)
	defer done()
	if _, err := c.Push("coll", testImage("seed", "latest", "v0")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				name := fmt.Sprintf("app%d", i)
				_, errs[i] = c.Push("coll", testImage(name, "latest", name))
			} else {
				_, _, errs[i] = c.Pull("coll", "seed", "latest", "")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
	}
	entries, err := c.List("coll")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 17 { // seed + 16 pushes
		t.Errorf("entries = %d, want 17", len(entries))
	}
}

func TestRealListener(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient("http://" + addr)
	if _, err := c.Push("coll", testImage("app", "1", "x")); err != nil {
		t.Fatal(err)
	}
	entries, err := c.List("coll")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("entries = %v", entries)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}
