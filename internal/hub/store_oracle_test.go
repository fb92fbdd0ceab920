package hub

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/goldentest"
)

// storeObservation renders everything a store shows through its public
// API: the List JSON of every collection, each entry's Get bytes and
// digest, its quarantine reason, the hints, and the entry, layer, hint and
// quarantine counts.
func storeObservation(t *testing.T, s *Store) string {
	t.Helper()
	var b bytes.Buffer
	for _, coll := range s.Collections() {
		entries := s.List(coll)
		data, err := json.Marshal(entries)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "list %s %s\n", coll, data)
		for _, e := range entries {
			blob, d, ok := s.Get(coll, e.Container, e.Tag)
			sum := sha256.Sum256(blob)
			reason, bad := s.QuarantineReason(coll, e.Container, e.Tag)
			fmt.Fprintf(&b, "get %s/%s:%s ok=%v digest=%s bytes=%s quarantined=%v reason=%q\n",
				coll, e.Container, e.Tag, ok, d, hex.EncodeToString(sum[:]), bad, reason)
		}
	}
	hints, err := json.Marshal(s.Hints(""))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "hints %s\n", hints)
	fmt.Fprintf(&b, "counts entries=%d layers=%d hints=%d quarantined=%d\n",
		s.EntryCount(), s.LayerCount(), s.HintCount(), s.QuarantinedCount())
	return b.String()
}

// stateDirListing renders every file of a state directory with the
// SHA-256 of its bytes, in name order.
func stateDirListing(t *testing.T, dir string) string {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(&b, "file %s %s\n", f.Name(), hex.EncodeToString(sum[:]))
	}
	return b.String()
}

// TestStoreStateOracle pins what a durable store shows, through its
// public API and in its state directory, over a scripted sequence: puts
// (one image pushed from two build hosts), a hint add and ack, a delete,
// in-memory rot caught by a scrub, a crash reopen from the journal, a
// repair by re-push, and Close then reopen; then an open and close of the
// state directory an earlier release wrote (testdata/parent_store). The
// golden was recorded before the store kept one record per ref, so any
// drift is a behaviour change of the store, not of the test.
func TestStoreStateOracle(t *testing.T) {
	var out bytes.Buffer
	step := func(name string, s *Store, dir string) {
		fmt.Fprintf(&out, "== %s\n%s%s", name, storeObservation(t, s), stateDirListing(t, dir))
	}
	open := func(name, dir string) *Store {
		s, report, err := OpenDurable(dir, DurableOptions{CompactEvery: -1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&out, "== %s report %+v\n", name, report)
		return s
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	s := open("open empty", dir)
	a := testImage("pepa", "latest", "same-solver")
	b := testImage("pepa", "latest", "same-solver")
	b.Meta.BuildHost = "ubuntu-16.04-xenial"
	layered, err := testImage("gpa", "latest", "analyser").MarshalLayered()
	must(err)
	for _, p := range []struct {
		coll, name, tag string
		blob            []byte
	}{
		{"one", "pepa", "latest", mustBlob(t, a)},
		{"two", "pepa", "latest", mustBlob(t, b)},
		{"pepa-containers", "gpa", "latest", layered},
		{"pepa-containers", "tool", "v2", mustBlob(t, testImage("tool", "v2", "x"))},
		{"pepa-containers", "old", "v1", mustBlob(t, testImage("old", "v1", "retired"))},
	} {
		d, err := s.Put(p.coll, p.name, p.tag, p.blob)
		must(err)
		fmt.Fprintf(&out, "put %s/%s:%s %s\n", p.coll, p.name, p.tag, d)
	}
	// An identical re-push is a no-op.
	_, err = s.Put("one", "pepa", "latest", mustBlob(t, a))
	must(err)
	step("after puts", s, dir)

	ha := Hint{Target: "peer-b", Collection: "one", Container: "pepa", Tag: "latest", Digest: "sha256:aa"}
	hb := Hint{Target: "peer-c", Collection: "two", Container: "pepa", Tag: "latest", Digest: "sha256:bb"}
	must(s.AddHint(ha))
	must(s.AddHint(hb))
	acked, err := s.AckHint(ha)
	must(err)
	fmt.Fprintf(&out, "ack %v\n", acked)
	existed, err := s.Delete("pepa-containers", "old", "v1")
	must(err)
	fmt.Fprintf(&out, "delete %v\n", existed)
	step("after hint and delete", s, dir)

	fmt.Fprintf(&out, "flip %v\n", s.FlipBit("two", "pepa", "latest", 12345))
	fmt.Fprintf(&out, "scrub %+v\n", s.ScrubOnce(nil))
	step("after rot and scrub", s, dir)

	must(s.wal.close()) // a crash: the journal is never compacted
	s = open("crash reopen", dir)
	step("after crash reopen", s, dir)

	d, err := s.Put("two", "pepa", "latest", mustBlob(t, b))
	must(err)
	fmt.Fprintf(&out, "repair %s\n", d)
	step("after repair", s, dir)

	must(s.Close())
	fmt.Fprintf(&out, "== after close\n%s", stateDirListing(t, dir))
	s = open("reopen", dir)
	step("after reopen", s, dir)
	must(s.Close())
	fmt.Fprintf(&out, "== after second close\n%s", stateDirListing(t, dir))

	parent := t.TempDir()
	files, err := filepath.Glob("testdata/parent_store/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture files = %v, %v", files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		must(err)
		must(os.WriteFile(filepath.Join(parent, filepath.Base(f)), data, 0o644))
	}
	s = open("parent store", parent)
	step("parent store opened", s, parent)
	must(s.Close())
	fmt.Fprintf(&out, "== parent store closed\n%s", stateDirListing(t, parent))

	goldentest.Check(t, "testdata/goldens/store_oracle.txt", out.String())
}

// TestCompactionAfterRotKeepsVerifiedBlob: in-memory rot that no scrub has
// caught yet must not reach disk. A compaction (explicit, or the one Close
// runs) names the blob file the bytes were verified into, so the healthy
// file survives and the reopened entry serves its pushed bytes. A
// compaction that hashed memory would write the rotted bytes under a new
// name and collect the healthy file, and the entry would reopen
// quarantined.
func TestCompactionAfterRotKeepsVerifiedBlob(t *testing.T) {
	for _, viaClose := range []bool{false, true} {
		dir := t.TempDir()
		s, _, err := OpenDurable(dir, DurableOptions{CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		blob := mustBlob(t, testImage("pepa", "latest", "solver"))
		digest, err := s.Put("c", "pepa", "latest", blob)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := s.Get("c", "pepa", "latest")
		before := stateDirListing(t, dir)
		scifs, err := filepath.Glob(filepath.Join(dir, "*.scif"))
		if err != nil || len(scifs) != 1 {
			t.Fatalf("blob files = %v, %v; want exactly one", scifs, err)
		}
		if !s.FlipBit("c", "pepa", "latest", 4000) {
			t.Fatal("FlipBit found no entry")
		}
		if viaClose {
			err = s.Close()
		} else {
			err = s.Compact()
			if err == nil {
				err = s.wal.close()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(scifs[0])
		if err != nil {
			t.Fatalf("close=%v: verified blob file gone after compaction: %v", viaClose, err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("close=%v: verified blob file rewritten with other bytes", viaClose)
		}
		if got, _ := filepath.Glob(filepath.Join(dir, "*.scif")); len(got) != 1 {
			t.Errorf("close=%v: blob files after compaction = %v, want only %s\nbefore:\n%s",
				viaClose, got, filepath.Base(scifs[0]), before)
		}
		back, report, err := OpenDurable(dir, DurableOptions{CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if report.Quarantined != 0 {
			t.Errorf("close=%v: reopen report %+v, want nothing quarantined", viaClose, report)
		}
		if got, d, ok := back.Get("c", "pepa", "latest"); !ok || d != digest || !bytes.Equal(got, want) {
			t.Errorf("close=%v: reopened entry = (ok %v, %s), want the pushed bytes under %s", viaClose, ok, d, digest)
		}
		if err := back.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
