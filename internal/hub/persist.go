package hub

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/fsatomic"
)

// Persistence: the registry state lives in a directory holding a
// snapshot index (index.json), one content-addressed blob file per
// stored encoding, and an append-only write-ahead journal (journal.wal, see
// wal.go). A durable store (OpenDurable) journals every mutation before
// acknowledging it and periodically compacts the journal into a fresh
// snapshot; replay-on-open recovers from crashes and torn tails.

// indexFile is the on-disk catalogue name.
const indexFile = "index.json"

// hintsFile persists hinted-handoff records across journal compactions
// (see hints.go); like the index it is rewritten atomically.
const hintsFile = "hints.json"

type persistedEntry struct {
	Entry
	Blob string `json:"blob,omitempty"` // file name within the state directory
}

// DurableOptions tunes OpenDurable. Zero fields use defaults.
type DurableOptions struct {
	// CompactEvery compacts the journal into a snapshot after this many
	// records (default 128; negative disables auto-compaction).
	CompactEvery int
}

// OpenReport summarizes what OpenDurable recovered.
type OpenReport struct {
	SnapshotEntries int   // entries restored from index.json
	JournalRecords  int   // journal records replayed on top
	TornBytes       int64 // torn journal tail bytes truncated
	Quarantined     int   // entries quarantined during recovery
}

// OpenDurable opens (creating if needed) a durable store rooted at dir:
// the snapshot is loaded, the journal is replayed on top (truncating any
// torn tail), and every subsequent Put/Delete/quarantine is journaled
// with an fsync before it is acknowledged. Blobs that fail their digest
// check during recovery are quarantined (served as 410, repairable by
// re-push) rather than aborting startup — a self-healing open.
func OpenDurable(dir string, opts DurableOptions) (*Store, OpenReport, error) {
	if opts.CompactEvery == 0 {
		opts.CompactEvery = 128
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, OpenReport{}, err
	}
	var report OpenReport
	s := NewStore()
	if _, err := os.Stat(filepath.Join(dir, indexFile)); err == nil {
		loaded, err := loadSnapshot(dir)
		if err != nil {
			return nil, OpenReport{}, err
		}
		s = loaded
		report.SnapshotEntries = s.EntryCount()
	}
	w, replay, err := openWAL(dir)
	if err != nil {
		return nil, OpenReport{}, err
	}
	for _, rec := range replay.Records {
		s.applyWALRecord(dir, rec)
	}
	report.JournalRecords = len(replay.Records)
	report.TornBytes = replay.TornBytes
	report.Quarantined = s.QuarantinedCount()
	s.dir = dir
	s.wal = w
	s.compactEvery = opts.CompactEvery
	// A long journal at open means the last run never compacted; fold it
	// into the snapshot now so replay stays cheap.
	if s.compactEvery > 0 && w.records >= s.compactEvery {
		s.pmu.Lock()
		err := s.compactLocked()
		s.pmu.Unlock()
		if err != nil {
			w.close()
			return nil, OpenReport{}, err
		}
	}
	return s, report, nil
}

// Close flushes the store's durability state: an in-progress journal is
// compacted into a snapshot and closed. On a purely in-memory store it
// is a no-op. Safe to call once; the store must not be mutated after.
func (s *Store) Close() error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.wal == nil {
		return nil
	}
	compactErr := s.compactLocked()
	closeErr := s.wal.close()
	s.wal = nil
	if compactErr != nil {
		return compactErr
	}
	return closeErr
}

// Durable reports whether the store journals its mutations.
func (s *Store) Durable() bool {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.wal != nil
}

// Compact folds the journal into a fresh snapshot immediately.
func (s *Store) Compact() error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.wal == nil {
		return fmt.Errorf("hub: store is not durable")
	}
	return s.compactLocked()
}

// compactLocked writes a snapshot and resets the journal. Caller holds
// pmu. Crash ordering: the snapshot replaces index.json atomically
// first; a crash before the journal reset merely replays records the
// snapshot already contains, which is idempotent.
func (s *Store) compactLocked() error {
	index, err := s.writeSnapshot()
	if err != nil {
		return err
	}
	if err := s.wal.reset(); err != nil {
		return err
	}
	s.gcBlobs(index)
	return nil
}

// gcBlobs removes content-addressed blob files no entry of the snapshot
// index references (best effort — a leaked blob wastes space but harms
// nothing). Caller holds pmu, so the index is current.
func (s *Store) gcBlobs(index []persistedEntry) {
	live := make(map[string]bool, len(index))
	for _, pe := range index {
		live[pe.Blob] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".scif") && !live[e.Name()] {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// persistPut makes one put durable before it is applied: the record's
// blob file is written (fsynced, atomically renamed) and then the journal
// record is appended. force rewrites the blob file even if one with that
// name exists — required when repairing a quarantined entry whose on-disk
// copy may be the corrupt one. Caller holds pmu.
func (s *Store) persistPut(r record, force bool) error {
	path := filepath.Join(s.dir, r.file)
	_, statErr := os.Stat(path)
	if force || statErr != nil {
		if err := fsatomic.WriteFile(path, r.blob, 0o644); err != nil {
			return fmt.Errorf("hub: saving blob %s: %w", r.file, err)
		}
	}
	return s.wal.append(walPut, persistedEntry{Entry: r.Entry(), Blob: r.file})
}

// loadBlob reads and verifies the blob file pe names, returning the
// record to hold: the SCIF2 bytes, the entry updated to describe them (a
// SCIF1 file written by an older hub is re-encoded; its digest is
// unchanged) and the file the bytes belong in. ok is false when the file
// is unreadable, malformed, or not the entry's digest. The caller has
// checked the name with validBlobName.
func loadBlob(dir string, pe persistedEntry) (record, bool) {
	raw, err := os.ReadFile(filepath.Join(dir, pe.Blob))
	if err != nil {
		return record{}, false
	}
	blob, img, d, err := storedForm(raw)
	if err != nil || d != pe.Digest {
		return record{}, false
	}
	e := pe.Entry
	e.Size, e.Layers = len(blob), len(img.Layers)
	return record{entry: e, blob: blob, file: blobFileName(d, blob)}, true
}

// applyWALRecord applies one replayed journal record to the in-memory
// state (no re-journaling). Put records re-verify their blob bytes; a
// blob name that is not the digest's own file, or a missing or
// digest-mismatched blob, quarantines the entry instead of failing the
// open.
func (s *Store) applyWALRecord(dir string, rec walRecord) {
	pe := rec.Entry
	k := key(pe.Collection, pe.Container, pe.Tag)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch rec.Op {
	case walPut:
		r, ok := record{}, validBlobName(pe.Digest, pe.Blob)
		if ok {
			r, ok = loadBlob(dir, pe)
		}
		if !ok {
			r = record{entry: pe.Entry, reason: "journal blob failed digest verification"}
		}
		s.setLocked(k, r)
	case walDelete:
		delete(s.entries, k)
	case walQuarantine:
		s.quarantineLocked(k, "quarantined by scrubber")
	case walHintAdd:
		if rec.Hint != nil && rec.Hint.validate() == nil {
			s.hints[rec.Hint.hintKey()] = *rec.Hint
		}
	case walHintAck:
		if rec.Hint != nil {
			if existing, ok := s.hints[rec.Hint.hintKey()]; ok && existing.Digest == rec.Hint.Digest {
				delete(s.hints, rec.Hint.hintKey())
			}
		}
	}
}

// writeSnapshot writes every missing blob file plus the index into the
// state directory, atomically, and returns the index. A healthy entry
// names the file its bytes were verified into, and a missing file is
// written only from bytes that hash to its name (verifiedBlob), so rot in
// memory never reaches disk; a quarantined entry is never read back from
// disk, so it names no blob file. Caller holds pmu.
func (s *Store) writeSnapshot() ([]persistedEntry, error) {
	dir := s.dir
	s.mu.RLock()
	defer s.mu.RUnlock()
	index := make([]persistedEntry, 0, len(s.entries))
	for _, r := range s.entries {
		pe := persistedEntry{Entry: r.Entry()}
		if r.reason == "" {
			pe.Blob = r.file
			// The file is missing only when the bytes were loaded from a
			// file under an older name, or it was removed behind the store.
			path := filepath.Join(dir, pe.Blob)
			if _, err := os.Stat(path); err != nil {
				if blob, ok := verifiedBlob(dir, r); ok {
					if err := fsatomic.WriteFile(path, blob, 0o644); err != nil {
						return nil, fmt.Errorf("hub: saving blob %s: %w", pe.Blob, err)
					}
				}
			}
		}
		index = append(index, pe)
	}
	// Deterministic index order.
	slices.SortFunc(index, func(a, b persistedEntry) int { return compareEntries(a.Entry, b.Entry) })
	data, err := json.MarshalIndent(index, "", "  ")
	if err != nil {
		return nil, err
	}
	// Hints are durable state too: compaction erases their journal
	// records, so the snapshot must carry them. Sorted for determinism.
	hints := make([]Hint, 0, len(s.hints))
	for _, h := range s.hints {
		hints = append(hints, h)
	}
	sort.Slice(hints, func(i, j int) bool { return hints[i].hintKey() < hints[j].hintKey() })
	hintData, err := json.MarshalIndent(hints, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := fsatomic.WriteFile(filepath.Join(dir, hintsFile), hintData, 0o644); err != nil {
		return nil, err
	}
	// fsatomic (tmp + fsync + rename + dir sync) guarantees a crash mid-
	// save leaves either the previous index or the new one, never a torn
	// file — the blobs above get the same treatment, so a restored index
	// never points at a half-written blob.
	return index, fsatomic.WriteFile(filepath.Join(dir, indexFile), data, 0o644)
}

// verifiedBlob returns bytes that hash to the name of r's missing blob
// file: the bytes in memory, unless they rotted after they were verified,
// else those of the file named by the digest alone (as older hubs wrote
// it), verified as a load verifies them. ok is false when neither holds
// them, and the caller writes nothing, so rot in memory never reaches
// disk.
func verifiedBlob(dir string, r record) ([]byte, bool) {
	if blobFileName(r.entry.Digest, r.blob) == r.file {
		return r.blob, true
	}
	legacy := strings.TrimPrefix(r.entry.Digest, "sha256:") + ".scif"
	lr, ok := loadBlob(dir, persistedEntry{Entry: r.entry, Blob: legacy})
	return lr.blob, ok && lr.file == r.file
}

// blobFileName names the file holding blob, the stored encoding of an
// image with the given digest: the digest's hex, then the SHA-256 of the
// bytes. The digest alone cannot name it: one image built on two hosts
// has one digest but two encodings, each recording its build host.
func blobFileName(digest string, blob []byte) string {
	sum := sha256.Sum256(blob)
	return strings.TrimPrefix(digest, "sha256:") + "-" + hex.EncodeToString(sum[:]) + ".scif"
}

// validBlobName reports whether name is a blob file of a well-formed
// "sha256:<64 hex>" digest: "<digest hex>-<64 hex>.scif", or
// "<digest hex>.scif" as hubs that named blob files by digest alone wrote
// it. Persisted state names blobs only these ways, so any other name (a
// path, "..", another digest's file) is tampering and must never reach a
// path join.
func validBlobName(digest, name string) bool {
	sum, ok := strings.CutPrefix(digest, "sha256:")
	if !ok || !isHex64(sum) {
		return false
	}
	rest, ok := strings.CutPrefix(name, sum)
	if !ok {
		return false
	}
	if rest, ok = strings.CutSuffix(rest, ".scif"); !ok {
		return false
	}
	content, ok := strings.CutPrefix(rest, "-")
	return rest == "" || ok && isHex64(content)
}

// isHex64 reports whether s is 64 hex digits, a SHA-256 sum.
func isHex64(s string) bool {
	if len(s) != 64 {
		return false
	}
	_, err := hex.DecodeString(s)
	return err == nil
}

// loadSnapshot restores a store from dir's index. An entry whose blob is
// unreadable or fails its digest check is quarantined and the load
// continues; an index naming a blob file other than its digest's own is
// rejected outright. SCIF1 blob files load in their SCIF2 form.
func loadSnapshot(dir string) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		return nil, fmt.Errorf("hub: reading index: %w", err)
	}
	var index []persistedEntry
	if err := json.Unmarshal(data, &index); err != nil {
		return nil, fmt.Errorf("hub: corrupt index: %w", err)
	}
	s := NewStore()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pe := range index {
		k := key(pe.Collection, pe.Container, pe.Tag)
		if pe.Entry.Quarantined {
			// Never read from disk, so its blob name is never joined.
			s.setLocked(k, record{entry: pe.Entry, reason: "quarantined in snapshot"})
			continue
		}
		if !validBlobName(pe.Digest, pe.Blob) {
			return nil, fmt.Errorf("hub: suspicious blob path %q in index", pe.Blob)
		}
		r, ok := loadBlob(dir, pe)
		if !ok {
			r = record{entry: pe.Entry, reason: "snapshot blob failed digest verification"}
		}
		s.setLocked(k, r)
	}
	loadHintsLocked(s, dir)
	return s, nil
}

// loadHintsLocked restores hints.json into the store (leniently: hints
// are recoverable metadata — a peer re-detecting a down owner recreates
// them — so an unreadable file never fails a load). Caller holds s.mu.
func loadHintsLocked(s *Store, dir string) {
	raw, err := os.ReadFile(filepath.Join(dir, hintsFile))
	if err != nil {
		return
	}
	var hints []Hint
	if err := json.Unmarshal(raw, &hints); err != nil {
		return
	}
	for _, h := range hints {
		if h.validate() == nil {
			s.hints[h.hintKey()] = h
		}
	}
}
