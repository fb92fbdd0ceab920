package hub

import (
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Integrity scrubbing: a background loop re-hashes every stored blob on
// a jittered interval and quarantines entries whose bytes no longer
// match their recorded digest (bit-rot, torn writes that slipped past
// recovery, hostile edits). The same pass re-hashes the layer index and
// drops frames whose bytes no longer match their digest key, so layered
// transfer — including cluster read repair — never serves a rotted
// frame; a dropped layer is simply reported missing to the next layered
// push, which uploads it again. Quarantined content is served as 410 Gone
// with a typed error until a re-push repairs it; on durable stores the
// quarantine is journaled so it survives restarts. Metrics land in the
// hub_scrub_* family.

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Checked     int      // entries whose bytes were re-hashed
	Corrupt     int      // entries newly quarantined this pass
	Quarantined []string // keys ("coll/name:tag") newly quarantined
	Skipped     int      // entries already in quarantine (not re-checked)
}

// ScrubOnce re-hashes every stored blob now, quarantining mismatches,
// then every layer frame, dropping mismatches. It is deterministic given
// the store contents, so chaos tests can assert exactly which entries a
// corruption flips. reg may be nil.
func (s *Store) ScrubOnce(reg *obs.Registry) ScrubReport {
	s.mu.RLock()
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	sort.Strings(keys)

	var report ScrubReport
	for _, k := range keys {
		s.mu.RLock()
		r, ok := s.entries[k]
		s.mu.RUnlock()
		if !ok {
			continue // deleted since the key snapshot
		}
		if r.reason != "" {
			report.Skipped++
			continue
		}
		report.Checked++
		reg.Inc("hub_scrub_blobs_checked_total")
		_, _, got, err := storedForm(r.blob)
		if err == nil && got == r.entry.Digest {
			continue
		}
		reason := "stored bytes failed digest verification"
		if err != nil {
			reason = "stored bytes unparsable: " + err.Error()
		}
		s.quarantine(k, r, reason)
		report.Corrupt++
		report.Quarantined = append(report.Quarantined, k)
		reg.Inc("hub_scrub_corrupt_total")
	}
	s.scrubLayers()
	reg.Inc("hub_scrub_runs_total")
	reg.Set("hub_scrub_quarantined", float64(s.QuarantinedCount()))
	return report
}

// scrubLayers drops every layer-index frame whose bytes no longer hash to
// its digest key. Frames alias the blob they were indexed from, so rot
// in one image's bytes can take a layer another, healthy image shares;
// the healthy blobs are therefore re-indexed afterwards, which restores
// such a layer from an intact copy (keys are computed from the bytes, so
// re-indexing can never install a mismatched frame).
func (s *Store) scrubLayers() {
	s.mu.RLock()
	frames := make(map[string][]byte, len(s.layers))
	for d, f := range s.layers {
		frames[d] = f
	}
	s.mu.RUnlock()
	var rotted []string
	for d, f := range frames {
		if layerContentDigest(f) != d {
			rotted = append(rotted, d)
		}
	}
	if len(rotted) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range rotted {
		if f, ok := s.layers[d]; ok && layerContentDigest(f) != d {
			delete(s.layers, d)
		}
	}
	for _, r := range s.entries {
		if r.reason == "" {
			s.indexLayersLocked(r.blob)
		}
	}
}

// FlipBit flips one bit of the stored blob for (coll, name, tag) in
// place — the storage-side analogue of faultinject's wire-level
// corruption, for chaos tests that simulate bit-rot the scrubber must
// catch. The bit index wraps around the blob length, so any value picks
// a valid bit deterministically. Like real rot, the mutation is
// invisible until the next scrub or digest-verified read; it bypasses
// the journal on durable stores (rot is not a mutation the WAL saw), the
// layer index, and the blob file the bytes were verified into.
// Returns false for an unknown or empty entry.
func (s *Store) FlipBit(coll, name, tag string, bit int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := key(coll, name, tag)
	r, ok := s.entries[k]
	if !ok || len(r.blob) == 0 {
		return false
	}
	// Mutate a copy: layer-index frames alias the original blob, and
	// real rot on a blob file would not rewrite them either.
	mutated := append([]byte(nil), r.blob...)
	bit %= len(mutated) * 8
	if bit < 0 {
		bit += len(mutated) * 8
	}
	mutated[bit/8] ^= 1 << (bit % 8)
	r.blob = mutated
	s.entries[k] = r
	return true
}

// quarantine marks k as known-bad, journaling the transition on durable
// stores so it survives restarts. The corrupt bytes are kept in memory
// for forensics; they are never served.
func (s *Store) quarantine(k string, r record, reason string) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.wal != nil {
		r.reason = reason
		// Journal failures must not mask the quarantine: the in-memory
		// mark still protects readers this run.
		s.wal.append(walQuarantine, persistedEntry{Entry: r.Entry()})
	}
	s.mu.Lock()
	s.quarantineLocked(k, reason)
	s.mu.Unlock()
}

// quarantineLocked sets the reason k's record is quarantined, if k is
// still stored. Caller holds s.mu.
func (s *Store) quarantineLocked(k, reason string) {
	if r, ok := s.entries[k]; ok {
		r.reason = reason
		s.setLocked(k, r)
	}
}

// Scrubber runs ScrubOnce on a jittered interval in the background.
type Scrubber struct {
	store    *Store
	interval time.Duration
	jitter   *rng.Source
	reg      *obs.Registry
	stop     chan struct{}
	done     chan struct{}
}

// StartScrubber begins background integrity scrubbing of store every
// interval, scaled per cycle by a deterministic jitter factor in
// [0.75, 1.25) from seed so a fleet of hubs does not scrub in lockstep.
// reg may be nil. Stop the scrubber with Stop.
func StartScrubber(store *Store, interval time.Duration, seed uint64, reg *obs.Registry) *Scrubber {
	if interval <= 0 {
		interval = 5 * time.Minute
	}
	if seed == 0 {
		seed = 1
	}
	sc := &Scrubber{
		store: store, interval: interval, jitter: rng.New(seed), reg: reg,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	go sc.run()
	return sc
}

func (sc *Scrubber) run() {
	defer close(sc.done)
	for {
		d := sc.nextDelay()
		timer := time.NewTimer(d)
		select {
		case <-sc.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		sc.store.ScrubOnce(sc.reg)
	}
}

// nextDelay returns the jittered wait before the next pass.
func (sc *Scrubber) nextDelay() time.Duration {
	u := sc.jitter.Float64()
	return time.Duration(float64(sc.interval) * (0.75 + 0.5*u))
}

// Stop halts the scrub loop and waits for an in-progress pass to end.
func (sc *Scrubber) Stop() {
	close(sc.stop)
	<-sc.done
}

// EnableScrubbing attaches a background scrubber to the server's store;
// it is stopped by Shutdown/Close. Call before Listen.
func (s *Server) EnableScrubbing(interval time.Duration, seed uint64) {
	s.scrubber = StartScrubber(s.Store, interval, seed, s.obs)
}
