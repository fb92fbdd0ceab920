package hub

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// dumpStore renders a store's full logical state (entries, digests, blob
// bytes, quarantine marks) as one canonical string, so two stores can be
// compared byte-for-byte.
func dumpStore(s *Store) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.meta))
	for k := range s.meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		e := s.meta[k]
		sum := sha256.Sum256(s.blobs[k])
		fmt.Fprintf(&b, "%s digest=%s size=%d blob=%s quarantined=%v reason=%q\n",
			k, s.digest[k], e.Size, hex.EncodeToString(sum[:]), e.Quarantined, s.quarantined[k])
	}
	return b.String()
}

// copyStateDir clones a durable state directory, truncating the journal
// to cut bytes — the on-disk picture a crash at that instant leaves.
func copyStateDir(t *testing.T, src string, cut int) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == walFileName && cut < len(data) {
			data = data[:cut]
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// mustBlob marshals a test image.
func mustBlob(t *testing.T, img interface{ Marshal() ([]byte, error) }) []byte {
	t.Helper()
	blob, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestWALCrashPointRecovery is the durability acceptance table: a store
// journals three puts, then the journal is cut at EVERY byte offset —
// simulating a crash between any two bytes of the append stream — and
// each cut must recover to exactly the state of the longest whole-record
// prefix, byte-identical, with the torn tail truncated away.
func TestWALCrashPointRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDurable(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		blob := mustBlob(t, testImage(fmt.Sprintf("app%d", i), "v1", fmt.Sprintf("payload-%d", i)))
		if _, err := s.Put("coll", fmt.Sprintf("app%d", i), "v1", blob); err != nil {
			t.Fatal(err)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, walMagic) {
		t.Fatalf("journal missing magic: %q", raw[:min(16, len(raw))])
	}

	// Record boundaries (absolute offsets just past each whole record).
	recs, goodLen, torn := decodeWALRecords(raw[len(walMagic):])
	if torn || len(recs) != 3 || goodLen != len(raw)-len(walMagic) {
		t.Fatalf("journal not clean: %d records, goodLen %d, torn %v", len(recs), goodLen, torn)
	}

	// Expected state per prefix length: replay the first k records into a
	// fresh store against the same blob files.
	expect := make([]string, 4)
	for k := 0; k <= 3; k++ {
		ref := NewStore()
		for _, rec := range recs[:k] {
			ref.applyWALRecord(dir, rec)
		}
		expect[k] = dumpStore(ref)
	}

	boundaries := []int{len(walMagic)}
	off := len(walMagic)
	for _, rec := range recs {
		enc, err := encodeWALRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		off += len(enc)
		boundaries = append(boundaries, off)
	}
	prefixFor := func(cut int) int {
		k := 0
		for i, b := range boundaries {
			if cut >= b {
				k = i
			}
		}
		return k
	}

	for cut := 0; cut <= len(raw); cut++ {
		crashed := copyStateDir(t, dir, cut)
		rec, report, err := OpenDurable(crashed, DurableOptions{CompactEvery: -1})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		k := 0
		if cut >= len(walMagic) {
			k = prefixFor(cut)
		}
		if got := dumpStore(rec); got != expect[k] {
			t.Fatalf("cut %d: recovered state differs from %d-record prefix:\n got: %s\nwant: %s",
				cut, k, got, expect[k])
		}
		if report.JournalRecords != k {
			t.Errorf("cut %d: replayed %d records, want %d", cut, report.JournalRecords, k)
		}
		// A torn tail must be physically truncated so appends extend a
		// well-formed journal.
		if err := rec.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestWALTornTailTruncatedOnDisk: after a recovery over a torn tail the
// journal file holds exactly the whole-record prefix.
func TestWALTornTailTruncatedOnDisk(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDurable(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("c", "n", "t", mustBlob(t, testImage("n", "t", "v1"))); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(filepath.Join(dir, walFileName))
	whole := len(raw)

	// Simulate a crash mid-append: half of a second record's bytes.
	if _, err := s.Put("c", "n2", "t", mustBlob(t, testImage("n2", "t", "v2"))); err != nil {
		t.Fatal(err)
	}
	raw2, _ := os.ReadFile(filepath.Join(dir, walFileName))
	cut := whole + (len(raw2)-whole)/2
	crashed := copyStateDir(t, dir, cut)

	rec, report, err := OpenDurable(crashed, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if report.TornBytes != int64(cut-whole) {
		t.Errorf("TornBytes = %d, want %d", report.TornBytes, cut-whole)
	}
	onDisk, _ := os.ReadFile(filepath.Join(crashed, walFileName))
	if !bytes.Equal(onDisk, raw2[:whole]) {
		t.Errorf("journal after recovery is %d bytes, want the %d-byte whole-record prefix", len(onDisk), whole)
	}
	if _, _, ok := rec.Get("c", "n", "t"); !ok {
		t.Error("acknowledged entry lost in recovery")
	}
	if _, _, ok := rec.Get("c", "n2", "t"); ok {
		t.Error("torn (unacknowledged) entry survived recovery")
	}
}

// TestWALGarbageJournalStartsFresh: a journal that does not begin with
// the magic degrades to zero replayed records, not a failed open.
func TestWALGarbageJournalStartsFresh(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("c", "n", "t", mustBlob(t, testImage("n", "t", "v1"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // compacts: entry now lives in the snapshot
		t.Fatal(err)
	}
	garbage := []byte("this is not a journal")
	if err := os.WriteFile(filepath.Join(dir, walFileName), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, report, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if report.TornBytes != int64(len(garbage)) {
		t.Errorf("TornBytes = %d, want %d", report.TornBytes, len(garbage))
	}
	if report.SnapshotEntries != 1 || report.JournalRecords != 0 {
		t.Errorf("report = %+v", report)
	}
	if _, _, ok := rec.Get("c", "n", "t"); !ok {
		t.Error("snapshot entry lost")
	}
	onDisk, _ := os.ReadFile(filepath.Join(dir, walFileName))
	if !bytes.Equal(onDisk, walMagic) {
		t.Errorf("journal not reset to magic: %q", onDisk)
	}
}

// TestWALCompaction: crossing the CompactEvery threshold folds the
// journal into the snapshot, resets it, and drops unreferenced blobs.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDurable(dir, DurableOptions{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Re-pushes of the same tag leave orphaned content-addressed blobs
	// for compaction's GC to collect; the 4th put crosses CompactEvery.
	var lastDigest string
	for i := 0; i < 4; i++ {
		d, err := s.Put("c", "app", "latest", mustBlob(t, testImage("app", "latest", fmt.Sprintf("v%d", i))))
		if err != nil {
			t.Fatal(err)
		}
		lastDigest = d
	}
	if _, err := os.Stat(filepath.Join(dir, indexFile)); err != nil {
		t.Fatalf("compaction did not write a snapshot: %v", err)
	}
	onDisk, _ := os.ReadFile(filepath.Join(dir, walFileName))
	if len(onDisk) > len(walMagic)+200 {
		t.Errorf("journal not reset by compaction: %d bytes", len(onDisk))
	}
	scifs, _ := filepath.Glob(filepath.Join(dir, "*.scif"))
	if len(scifs) != 1 {
		t.Errorf("blob GC left %d blobs, want 1: %v", len(scifs), scifs)
	}
	before := dumpStore(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rec, report, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := dumpStore(rec); got != before {
		t.Errorf("state after compaction+reopen differs:\n got: %s\nwant: %s", got, before)
	}
	if report.JournalRecords != 0 {
		t.Errorf("journal not empty after Close: %d records", report.JournalRecords)
	}
	if _, d, ok := rec.Get("c", "app", "latest"); !ok || d != lastDigest {
		t.Errorf("latest digest = %s, want %s", d, lastDigest)
	}
}

// TestWALDeleteReplay: deletes are journaled and survive a reopen.
func TestWALDeleteReplay(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDurable(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"keep", "drop"} {
		if _, err := s.Put("c", n, "t", mustBlob(t, testImage(n, "t", n))); err != nil {
			t.Fatal(err)
		}
	}
	existed, err := s.Delete("c", "drop", "t")
	if err != nil || !existed {
		t.Fatalf("delete = %v, %v", existed, err)
	}
	if existed, _ := s.Delete("c", "ghost", "t"); existed {
		t.Error("delete of missing entry reported existed")
	}
	rec, report, err := OpenDurable(copyStateDir(t, dir, 1<<30), DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if report.JournalRecords != 3 { // 2 puts + 1 delete
		t.Errorf("replayed %d records, want 3", report.JournalRecords)
	}
	if _, _, ok := rec.Get("c", "keep", "t"); !ok {
		t.Error("kept entry missing after replay")
	}
	if _, _, ok := rec.Get("c", "drop", "t"); ok {
		t.Error("deleted entry resurrected by replay")
	}
}

// TestIdempotentPutSkipsJournal (satellite): re-pushing bytes whose
// digest matches the stored healthy entry writes nothing — no journal
// record, no blob rewrite.
func TestIdempotentPutSkipsJournal(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDurable(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blob := mustBlob(t, testImage("app", "v1", "same-bytes"))
	d1, err := s.Put("c", "app", "v1", blob)
	if err != nil {
		t.Fatal(err)
	}
	size1, _ := os.Stat(filepath.Join(dir, walFileName))
	d2, err := s.Put("c", "app", "v1", append([]byte(nil), blob...))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("idempotent put changed digest: %s -> %s", d1, d2)
	}
	size2, _ := os.Stat(filepath.Join(dir, walFileName))
	if size1.Size() != size2.Size() {
		t.Errorf("idempotent re-push grew the journal: %d -> %d bytes", size1.Size(), size2.Size())
	}
	if s.wal.records != 1 {
		t.Errorf("journal records = %d, want 1", s.wal.records)
	}
}

// TestLoadReplaysJournal: a reopen after a crash (no Close) sees both the
// snapshot and the journal records laid down after it.
func TestLoadReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDurable(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("c", "snap", "t", mustBlob(t, testImage("snap", "t", "v1"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil { // "snap" -> snapshot
		t.Fatal(err)
	}
	if _, err := s.Put("c", "tail", "t", mustBlob(t, testImage("tail", "t", "v2"))); err != nil {
		t.Fatal(err)
	}
	loaded, report, err := OpenDurable(copyStateDir(t, dir, 1<<30), DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if report.SnapshotEntries != 1 || report.JournalRecords != 1 {
		t.Errorf("report = %+v, want 1 snapshot entry and 1 journal record", report)
	}
	for _, n := range []string{"snap", "tail"} {
		if _, _, ok := loaded.Get("c", n, "t"); !ok {
			t.Errorf("entry %q missing after reopen", n)
		}
	}
}

// FuzzWALReplay throws arbitrary bytes at the journal decoder: it must
// never panic, must consume a whole-record prefix only, and the prefix
// it accepts must itself decode cleanly (recovery is a fixpoint).
func FuzzWALReplay(f *testing.F) {
	rec1, err := encodeWALRecord(walRecord{Seq: 1, Op: walPut, Entry: persistedEntry{
		Entry: Entry{Collection: "c", Container: "n", Tag: "t", Digest: "sha256:abc", Size: 3},
		Blob:  "abc.scif",
	}})
	if err != nil {
		f.Fatal(err)
	}
	rec2, err := encodeWALRecord(walRecord{Seq: 2, Op: walDelete, Entry: persistedEntry{
		Entry: Entry{Collection: "c", Container: "n", Tag: "t"},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(rec1)
	f.Add(append(append([]byte{}, rec1...), rec2...))
	f.Add(append(append([]byte{}, rec1...), rec2[:len(rec2)/2]...)) // torn tail
	f.Add(rec1[:7])                                                 // torn mid-header
	f.Add([]byte("\x00\x00\x00\x00junk"))                           // zero-length frame
	f.Add([]byte("\xff\xff\xff\xffgarbage"))                        // absurd length
	corrupt := append([]byte{}, rec1...)
	corrupt[len(corrupt)-1] ^= 0xff // CRC mismatch
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodLen, torn := decodeWALRecords(data)
		if goodLen < 0 || goodLen > len(data) {
			t.Fatalf("goodLen %d out of range [0,%d]", goodLen, len(data))
		}
		if torn && goodLen == len(data) {
			t.Fatal("torn reported with no tail bytes")
		}
		if !torn && goodLen != len(data) {
			t.Fatalf("clean decode left %d bytes unconsumed", len(data)-goodLen)
		}
		// The accepted prefix must be a fixpoint: decoding it again yields
		// the same records and no tear — this is what recovery relies on
		// after truncating the tail.
		recs2, goodLen2, torn2 := decodeWALRecords(data[:goodLen])
		if torn2 || goodLen2 != goodLen || len(recs2) != len(recs) {
			t.Fatalf("prefix not a fixpoint: %d/%d records, %d/%d bytes, torn %v",
				len(recs2), len(recs), goodLen2, goodLen, torn2)
		}
		// Appending a valid record to any accepted prefix must extend the
		// decode by exactly that record.
		extended := append(append([]byte{}, data[:goodLen]...), rec1...)
		recs3, _, torn3 := decodeWALRecords(extended)
		if torn3 || len(recs3) != len(recs)+1 {
			t.Fatalf("append after recovery not decodable: %d records (want %d), torn %v",
				len(recs3), len(recs)+1, torn3)
		}
	})
}
