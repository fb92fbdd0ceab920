package hub

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/fsatomic"
)

// Persistence: the registry state lives in a directory holding a
// snapshot index (index.json), one content-addressed blob file per
// image, and an append-only write-ahead journal (journal.wal, see
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
		report.SnapshotEntries = len(s.meta)
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
	report.Quarantined = len(s.quarantined)
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
	if err := s.writeSnapshot(); err != nil {
		return err
	}
	if err := s.wal.reset(); err != nil {
		return err
	}
	s.gcBlobs()
	return nil
}

// gcBlobs removes content-addressed blob files no live entry references
// (best effort — a leaked blob wastes space but harms nothing).
func (s *Store) gcBlobs() {
	s.mu.RLock()
	live := make(map[string]bool, len(s.digest))
	for _, d := range s.digest {
		live[blobFileName(d)] = true
	}
	s.mu.RUnlock()
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

// persistPut makes one put durable before it is applied: the blob file
// is written (fsynced, atomically renamed) and then the journal record
// is appended. force rewrites the blob file even if one with that name
// exists — required when repairing a quarantined entry whose on-disk
// copy may be the corrupt one. Caller holds pmu.
func (s *Store) persistPut(pe persistedEntry, blob []byte, force bool) error {
	path := filepath.Join(s.dir, pe.Blob)
	_, statErr := os.Stat(path)
	if force || statErr != nil {
		if err := fsatomic.WriteFile(path, blob, 0o644); err != nil {
			return fmt.Errorf("hub: saving blob %s: %w", pe.Blob, err)
		}
	}
	return s.wal.append(walPut, pe)
}

// loadBlob reads and verifies one entry's blob file, returning the SCIF2
// bytes to hold and the entry updated to describe them (a SCIF1 file
// written by an older hub is re-encoded; its digest is unchanged). ok is
// false when the file is unreadable, malformed, or not the entry's
// digest.
func loadBlob(path string, e Entry) ([]byte, Entry, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, e, false
	}
	blob, img, d, err := storedForm(raw)
	if err != nil || d != e.Digest {
		return nil, e, false
	}
	e.Size, e.Layers = len(blob), len(img.Layers)
	return blob, e, true
}

// applyWALRecord applies one replayed journal record to the in-memory
// maps (no re-journaling). Put records re-verify their blob bytes; a
// blob name that is not the digest's own file, or a missing or
// digest-mismatched blob, quarantines the entry instead of failing the
// open.
func (s *Store) applyWALRecord(dir string, rec walRecord) {
	pe := rec.Entry
	k := key(pe.Collection, pe.Container, pe.Tag)
	switch rec.Op {
	case walPut:
		if validBlobName(pe.Digest, pe.Blob) {
			if blob, e, ok := loadBlob(filepath.Join(dir, pe.Blob), pe.Entry); ok {
				s.installEntry(k, e, blob)
				return
			}
		}
		pe.Entry.Quarantined = true
		s.installQuarantined(k, pe.Entry, nil, "journal blob failed digest verification")
	case walDelete:
		s.removeEntry(k)
	case walQuarantine:
		s.mu.Lock()
		if e, ok := s.meta[k]; ok {
			e.Quarantined = true
			s.meta[k] = e
			s.quarantined[k] = "quarantined by scrubber"
		}
		s.mu.Unlock()
	case walHintAdd:
		if rec.Hint != nil && rec.Hint.validate() == nil {
			s.mu.Lock()
			s.hints[rec.Hint.hintKey()] = *rec.Hint
			s.mu.Unlock()
		}
	case walHintAck:
		if rec.Hint != nil {
			s.mu.Lock()
			if existing, ok := s.hints[rec.Hint.hintKey()]; ok && existing.Digest == rec.Hint.Digest {
				delete(s.hints, rec.Hint.hintKey())
			}
			s.mu.Unlock()
		}
	}
}

// installEntry replaces the in-memory state for k (clearing quarantine).
// The blob's layer frames also feed the layer index here, so WAL replay
// and snapshot loads rebuild it for free.
func (s *Store) installEntry(k string, e Entry, blob []byte) {
	s.mu.Lock()
	e.Quarantined = false
	s.blobs[k] = blob
	s.digest[k] = e.Digest
	s.meta[k] = e
	delete(s.quarantined, k)
	s.indexLayersLocked(blob)
	s.mu.Unlock()
}

// installQuarantined installs k as quarantined content: listed, but
// served as 410 until a re-push repairs it.
func (s *Store) installQuarantined(k string, e Entry, blob []byte, reason string) {
	s.mu.Lock()
	e.Quarantined = true
	s.blobs[k] = blob
	s.digest[k] = e.Digest
	s.meta[k] = e
	s.quarantined[k] = reason
	s.mu.Unlock()
}

// removeEntry drops k from the in-memory maps.
func (s *Store) removeEntry(k string) {
	s.mu.Lock()
	delete(s.blobs, k)
	delete(s.digest, k)
	delete(s.meta, k)
	delete(s.quarantined, k)
	s.mu.Unlock()
}

// writeSnapshot writes every blob file plus the index into the state
// directory, atomically. Caller holds pmu.
func (s *Store) writeSnapshot() error {
	dir := s.dir
	s.mu.RLock()
	defer s.mu.RUnlock()
	var index []persistedEntry
	for k, e := range s.meta {
		blobName := blobFileName(s.digest[k])
		if !e.Quarantined {
			if _, err := os.Stat(filepath.Join(dir, blobName)); err != nil {
				if err := fsatomic.WriteFile(filepath.Join(dir, blobName), s.blobs[k], 0o644); err != nil {
					return fmt.Errorf("hub: saving blob %s: %w", blobName, err)
				}
			}
		}
		index = append(index, persistedEntry{Entry: e, Blob: blobName})
	}
	// Deterministic index order.
	for i := 1; i < len(index); i++ {
		for j := i; j > 0 && indexLess(index[j], index[j-1]); j-- {
			index[j], index[j-1] = index[j-1], index[j]
		}
	}
	data, err := json.MarshalIndent(index, "", "  ")
	if err != nil {
		return err
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
		return err
	}
	if err := fsatomic.WriteFile(filepath.Join(dir, hintsFile), hintData, 0o644); err != nil {
		return err
	}
	// fsatomic (tmp + fsync + rename + dir sync) guarantees a crash mid-
	// save leaves either the previous index or the new one, never a torn
	// file — the blobs above get the same treatment, so a restored index
	// never points at a half-written blob.
	return fsatomic.WriteFile(filepath.Join(dir, indexFile), data, 0o644)
}

func indexLess(a, b persistedEntry) bool {
	if a.Collection != b.Collection {
		return a.Collection < b.Collection
	}
	if a.Container != b.Container {
		return a.Container < b.Container
	}
	return a.Tag < b.Tag
}

func blobFileName(digest string) string {
	return strings.TrimPrefix(digest, "sha256:") + ".scif"
}

// validBlobName reports whether name is the blob file of a well-formed
// "sha256:<64 hex>" digest. Persisted state names blobs only this way, so
// any other name (a path, "..", a mismatched digest) is tampering and
// must never reach a path join.
func validBlobName(digest, name string) bool {
	sum, ok := strings.CutPrefix(digest, "sha256:")
	if !ok || len(sum) != 64 {
		return false
	}
	if _, err := hex.DecodeString(sum); err != nil {
		return false
	}
	return name == blobFileName(digest)
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
	for _, pe := range index {
		k := key(pe.Collection, pe.Container, pe.Tag)
		if pe.Entry.Quarantined {
			// Never read from disk, so its blob name is never joined.
			s.installQuarantined(k, pe.Entry, nil, "quarantined in snapshot")
			continue
		}
		if !validBlobName(pe.Digest, pe.Blob) {
			return nil, fmt.Errorf("hub: suspicious blob path %q in index", pe.Blob)
		}
		blob, e, ok := loadBlob(filepath.Join(dir, pe.Blob), pe.Entry)
		if !ok {
			s.installQuarantined(k, pe.Entry, nil, "snapshot blob failed digest verification")
			continue
		}
		s.installEntry(k, e, blob)
	}
	loadHints(s, dir)
	return s, nil
}

// loadHints restores hints.json into the store (leniently: hints are
// recoverable metadata — a peer re-detecting a down owner
// recreates them — so an unreadable file never fails a load).
func loadHints(s *Store, dir string) {
	raw, err := os.ReadFile(filepath.Join(dir, hintsFile))
	if err != nil {
		return
	}
	var hints []Hint
	if err := json.Unmarshal(raw, &hints); err != nil {
		return
	}
	s.mu.Lock()
	for _, h := range hints {
		if h.validate() == nil {
			s.hints[h.hintKey()] = h
		}
	}
	s.mu.Unlock()
}
