package hub

import (
	"bytes"
	"encoding/base64"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// corruptStoredBlob flips one byte of the stored copy of coll/name:tag,
// simulating at-rest corruption (bit rot) behind the store's back. The
// flip lands inside marker, which must open a file's content: layers
// carry file data base64-encoded, so the flip swaps one letter of its
// encoding for another. The blob still parses, and only its digest
// check can catch the rot.
func corruptStoredBlob(t *testing.T, s *Store, coll, name, tag, marker string) {
	t.Helper()
	k := key(coll, name, tag)
	s.mu.Lock()
	defer s.mu.Unlock()
	blob := s.entries[k].blob
	if len(blob) == 0 {
		t.Fatalf("no stored blob for %s", k)
	}
	// Whole 3-byte groups of marker encode the same whatever follows.
	enc := base64.StdEncoding.EncodeToString([]byte(marker))[:len(marker)/3*4]
	i := bytes.Index(blob, []byte(enc))
	if i < 0 {
		t.Fatalf("marker %q not found in stored blob for %s", marker, k)
	}
	if blob[i] == 'A' {
		blob[i] = 'B'
	} else {
		blob[i] = 'A'
	}
}

// TestScrubOnceQuarantinesExactlyTheCorruptEntry: of three stored
// entries, flipping one byte in one of them must quarantine exactly that
// entry and leave the others serving.
func TestScrubOnceQuarantinesExactlyTheCorruptEntry(t *testing.T) {
	s := NewStore()
	for _, n := range []string{"alpha", "beta", "gamma"} {
		if _, err := s.Put("c", n, "v1", mustBlob(t, testImage(n, "v1", n+"-payload"))); err != nil {
			t.Fatal(err)
		}
	}
	corruptStoredBlob(t, s, "c", "beta", "v1", "beta-payload")

	reg := obs.NewRegistry()
	report := s.ScrubOnce(reg)
	if report.Checked != 3 || report.Corrupt != 1 {
		t.Errorf("report = %+v, want 3 checked / 1 corrupt", report)
	}
	if len(report.Quarantined) != 1 || report.Quarantined[0] != "c/beta:v1" {
		t.Errorf("quarantined = %v, want exactly [c/beta:v1]", report.Quarantined)
	}
	if _, ok := s.QuarantineReason("c", "beta", "v1"); !ok {
		t.Error("corrupt entry not marked quarantined")
	}
	if _, _, ok := s.Get("c", "beta", "v1"); ok {
		t.Error("quarantined blob still served by Get")
	}
	for _, n := range []string{"alpha", "gamma"} {
		if _, _, ok := s.Get("c", n, "v1"); !ok {
			t.Errorf("healthy entry %s not served", n)
		}
	}
	if got := reg.Counter("hub_scrub_blobs_checked_total"); got != 3 {
		t.Errorf("hub_scrub_blobs_checked_total = %v, want 3", got)
	}
	if got := reg.Counter("hub_scrub_corrupt_total"); got != 1 {
		t.Errorf("hub_scrub_corrupt_total = %v, want 1", got)
	}
	if got := reg.Gauge("hub_scrub_quarantined"); got != 1 {
		t.Errorf("hub_scrub_quarantined = %v, want 1", got)
	}

	// A second pass skips the already-quarantined entry and finds nothing
	// new — scrubbing is idempotent.
	second := s.ScrubOnce(reg)
	if second.Checked != 2 || second.Corrupt != 0 || second.Skipped != 1 {
		t.Errorf("second pass = %+v, want 2 checked / 0 corrupt / 1 skipped", second)
	}
	if got := reg.Counter("hub_scrub_runs_total"); got != 2 {
		t.Errorf("hub_scrub_runs_total = %v, want 2", got)
	}
}

// TestRepushRepairsQuarantine: pushing the original bytes again clears
// the quarantine — even though the digest matches the recorded one, the
// idempotent-put shortcut must not skip the repair.
func TestRepushRepairsQuarantine(t *testing.T) {
	s := NewStore()
	blob := mustBlob(t, testImage("app", "v1", "good-payload"))
	d, err := s.Put("c", "app", "v1", blob)
	if err != nil {
		t.Fatal(err)
	}
	corruptStoredBlob(t, s, "c", "app", "v1", "good-payload")
	if r := s.ScrubOnce(nil); r.Corrupt != 1 {
		t.Fatalf("scrub report = %+v", r)
	}

	d2, err := s.Put("c", "app", "v1", blob)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != d {
		t.Errorf("repair digest = %s, want %s", d2, d)
	}
	if _, ok := s.QuarantineReason("c", "app", "v1"); ok {
		t.Error("quarantine not cleared by re-push")
	}
	got, gotD, ok := s.Get("c", "app", "v1")
	if !ok || gotD != d {
		t.Fatalf("repaired entry not served: ok=%v digest=%s", ok, gotD)
	}
	if _, _, gd, err := storedForm(got); err != nil || gd != d {
		t.Errorf("repaired bytes fail verification: %s, %v", gd, err)
	}
}

// TestQuarantineSurvivesReopen: on a durable store the quarantine is
// journaled, so a restart (journal replay, healthy blob on disk) still
// refuses to serve the entry.
func TestQuarantineSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenDurable(dir, DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("c", "app", "v1", mustBlob(t, testImage("app", "v1", "payload"))); err != nil {
		t.Fatal(err)
	}
	// Corrupt only the in-memory copy: the on-disk blob stays healthy, so
	// only the journaled quarantine record can preserve the verdict.
	corruptStoredBlob(t, s, "c", "app", "v1", "payload")
	if r := s.ScrubOnce(nil); r.Corrupt != 1 {
		t.Fatalf("scrub report = %+v", r)
	}

	// Reopen from disk without Close (crash restart) …
	reopened, _, err := OpenDurable(copyStateDir(t, dir, 1<<30), DurableOptions{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if _, ok := reopened.QuarantineReason("c", "app", "v1"); !ok {
		t.Error("quarantine lost across journal-replay reopen")
	}

	// … and through a snapshot (Close compacts, then a fresh open).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap, report, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if report.Quarantined != 1 {
		t.Errorf("report.Quarantined = %d, want 1", report.Quarantined)
	}
	if _, ok := snap.QuarantineReason("c", "app", "v1"); !ok {
		t.Error("quarantine lost across snapshot reopen")
	}
	if _, _, ok := snap.Get("c", "app", "v1"); ok {
		t.Error("quarantined entry served after snapshot reopen")
	}
}

// TestScrubberRunsAndStops: the background loop fires on its interval
// and Stop halts it cleanly.
func TestScrubberRunsAndStops(t *testing.T) {
	s := NewStore()
	if _, err := s.Put("c", "app", "v1", mustBlob(t, testImage("app", "v1", "x"))); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sc := StartScrubber(s, time.Millisecond, 42, reg)
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("hub_scrub_runs_total") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("scrubber never completed two passes")
		}
		time.Sleep(time.Millisecond)
	}
	sc.Stop()
	after := reg.Counter("hub_scrub_runs_total")
	time.Sleep(10 * time.Millisecond)
	if got := reg.Counter("hub_scrub_runs_total"); got != after {
		t.Errorf("scrubber still running after Stop: %v -> %v", after, got)
	}
}

// TestScrubJitterDeterministic: the jittered delay sequence is a pure
// function of the seed and stays within [0.75, 1.25) of the interval.
func TestScrubJitterDeterministic(t *testing.T) {
	mk := func(seed uint64) []time.Duration {
		sc := &Scrubber{interval: time.Second, jitter: rng.New(seed)}
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = sc.nextDelay()
		}
		return out
	}
	a, b := mk(9), mk(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d differs across identical seeds: %s vs %s", i, a[i], b[i])
		}
		if a[i] < 750*time.Millisecond || a[i] >= 1250*time.Millisecond {
			t.Errorf("delay %d = %s outside [0.75s, 1.25s)", i, a[i])
		}
	}
	if c := mk(10); a[0] == c[0] && a[1] == c[1] && a[2] == c[2] {
		t.Error("different seeds produced identical jitter")
	}
}
