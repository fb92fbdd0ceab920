package hub

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/image"
)

// TestSaveLoadRoundTrip: a durable store's contents survive Close (which
// saves a snapshot) and a fresh OpenDurable (which loads it) with every
// entry and digest intact.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	for _, spec := range []struct{ coll, name, tag, payload string }{
		{"pepa-containers", "pepa", "latest", "solver-v1"},
		{"pepa-containers", "gpa", "latest", "analyser"},
		{"other", "tool", "v2", "x"},
	} {
		d, err := store.Put(spec.coll, spec.name, spec.tag, mustBlob(t, testImage(spec.name, spec.tag, spec.payload)))
		if err != nil {
			t.Fatal(err)
		}
		digests[key(spec.coll, spec.name, spec.tag)] = d
	}
	before := dumpStore(store)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	back, report, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if report.SnapshotEntries != 3 || report.JournalRecords != 0 {
		t.Errorf("report = %+v, want 3 snapshot entries and an empty journal", report)
	}
	if got := back.Collections(); len(got) != 2 {
		t.Fatalf("collections = %v", got)
	}
	blob, digest, ok := back.Get("pepa-containers", "pepa", "latest")
	if !ok || len(blob) == 0 {
		t.Fatal("pepa image lost")
	}
	if want := digests[key("pepa-containers", "pepa", "latest")]; digest != want {
		t.Errorf("digest changed: %s vs %s", digest, want)
	}
	if got := dumpStore(back); got != before {
		t.Errorf("reopened state differs:\n got: %s\nwant: %s", got, before)
	}
}

// TestSaveIsIdempotent: compacting an unchanged store again rewrites
// index.json byte-identically.
func TestSaveIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenDurable(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.Put("c", "a", "1", mustBlob(t, testImage("a", "1", "x"))); err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Error("repeated compaction changed the index")
	}
}

// TestLoadDetectsCorruption: a blob file rotted on disk is quarantined
// when the store is opened, and the server answers 410 Gone for it
// instead of serving the bad bytes.
func TestLoadDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("c", "a", "1", mustBlob(t, testImage("a", "1", "payload"))); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	scifs, err := filepath.Glob(filepath.Join(dir, "*.scif"))
	if err != nil || len(scifs) != 1 {
		t.Fatalf("blob files = %v, %v; want exactly one", scifs, err)
	}
	data, err := os.ReadFile(scifs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(scifs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	back, report, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("open over a corrupt blob must quarantine, not fail: %v", err)
	}
	defer back.Close()
	if report.Quarantined != 1 {
		t.Errorf("report.Quarantined = %d, want 1", report.Quarantined)
	}
	ts := httptest.NewServer(NewServer(back).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/c/a/1/manifest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone || resp.Header.Get(headerHubError) != hubErrQuarantined {
		t.Errorf("manifest GET of corrupt entry = %d (%s: %q), want a typed 410",
			resp.StatusCode, headerHubError, resp.Header.Get(headerHubError))
	}
}

// TestLoadReencodesSCIF1StateDir: a state directory an older hub wrote,
// with a SCIF1 blob behind both a snapshot entry and a journal record,
// loads every entry in its one-layer SCIF2 form under the same digest.
func TestLoadReencodesSCIF1StateDir(t *testing.T) {
	dir := t.TempDir()
	img := testImage("a", "1", "legacy-payload")
	mono := mustBlob(t, img)
	digest, err := img.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, blobFileName(digest)), mono, 0o644); err != nil {
		t.Fatal(err)
	}
	legacy := func(name string) persistedEntry {
		return persistedEntry{
			Entry: Entry{Collection: "c", Container: name, Tag: "1", Digest: digest, Size: len(mono), BuildHost: img.Meta.BuildHost},
			Blob:  blobFileName(digest),
		}
	}
	index, err := json.Marshal([]persistedEntry{legacy("snap")})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexFile), index, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := encodeWALRecord(walRecord{Seq: 1, Op: walPut, Entry: legacy("journal")})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFileName), append(append([]byte(nil), walMagic...), rec...), 0o644); err != nil {
		t.Fatal(err)
	}

	s, report, err := OpenDurable(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if report.SnapshotEntries != 1 || report.JournalRecords != 1 || report.Quarantined != 0 {
		t.Fatalf("report = %+v, want 1 snapshot entry, 1 journal record, none quarantined", report)
	}
	want, err := img.MarshalLayered()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range s.List("c") {
		blob, d, ok := s.Get("c", e.Container, "1")
		if !ok || d != digest || string(blob) != string(want) {
			t.Errorf("%s: digest %s, SCIF2 form %v; want %s held as its one-layer SCIF2 form",
				e.Container, d, image.IsLayered(blob), digest)
		}
		if e.Layers != 1 || e.Size != len(want) {
			t.Errorf("%s: entry %+v, want 1 layer of %d bytes", e.Container, e, len(want))
		}
	}
	ts := httptest.NewServer(NewServer(s).Handler())
	defer ts.Close()
	if _, got, err := NewClient(ts.URL).Pull("c", "journal", "1", digest); err != nil || got != digest {
		t.Errorf("pull of a re-encoded entry = (%s, %v), want %s", got, err, digest)
	}
}

// TestLoadRejectsPathTraversal: a blob name that is not its digest's own
// file never reaches a path join. In the snapshot index it fails the
// open; in a journal put record it quarantines the entry, exactly like a
// blob that fails its digest check.
func TestLoadRejectsPathTraversal(t *testing.T) {
	good := mustBlob(t, testImage("a", "1", "x"))
	_, _, digest, err := storedForm(good)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, where, digest, blob string
	}{
		{"index parent escape", "index", digest, "../evil"},
		{"index absolute path", "index", digest, "/etc/passwd"},
		{"index other digest", "index", digest, strings.Repeat("0", 64) + ".scif"},
		{"index malformed digest", "index", "sha256:x", "x.scif"},
		{"journal parent escape", "journal", digest, "../evil"},
		{"journal subdirectory", "journal", digest, "sub/" + blobFileName(digest)},
		{"journal malformed digest", "journal", "sha256:x", "x.scif"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "state")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			// A valid blob sits where the hostile name points, so only the
			// name check can stop it from being installed.
			if err := os.WriteFile(filepath.Join(root, "evil"), good, 0o644); err != nil {
				t.Fatal(err)
			}
			pe := persistedEntry{
				Entry: Entry{Collection: "c", Container: "a", Tag: "1", Digest: tc.digest, Size: len(good)},
				Blob:  tc.blob,
			}
			if tc.where == "index" {
				raw := `[{"collection":"c","container":"a","tag":"1","digest":"` + tc.digest + `","size":1,"blob":"` + tc.blob + `"}]`
				if err := os.WriteFile(filepath.Join(dir, indexFile), []byte(raw), 0o644); err != nil {
					t.Fatal(err)
				}
				if _, _, err := OpenDurable(dir, DurableOptions{}); err == nil || !strings.Contains(err.Error(), "suspicious blob path") {
					t.Fatalf("open = %v, want suspicious-blob-path error", err)
				}
				return
			}
			rec, err := encodeWALRecord(walRecord{Seq: 1, Op: walPut, Entry: pe})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, walFileName), append(append([]byte(nil), walMagic...), rec...), 0o644); err != nil {
				t.Fatal(err)
			}
			s, report, err := OpenDurable(dir, DurableOptions{CompactEvery: -1})
			if err != nil {
				t.Fatalf("open = %v, want the record quarantined", err)
			}
			defer s.Close()
			if report.JournalRecords != 1 || report.Quarantined != 1 {
				t.Errorf("report = %+v, want 1 record replayed and quarantined", report)
			}
			if _, _, ok := s.Get("c", "a", "1"); ok {
				t.Error("entry with a hostile blob name is served")
			}
		})
	}
}

// TestLoadMissingIndex: a state directory with no index or journal (a
// first run) opens as an empty store, and what it then holds is loaded
// back on the next open.
func TestLoadMissingIndex(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh")
	s, report, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Collections()) != 0 || report != (OpenReport{}) {
		t.Errorf("fresh store not empty: collections %v, report %+v", s.Collections(), report)
	}
	if _, err := s.Put("c", "a", "1", mustBlob(t, testImage("a", "1", "x"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(s2.Collections()) != 1 {
		t.Error("reopened store empty")
	}
}
