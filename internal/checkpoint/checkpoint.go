// Package checkpoint persists per-unit partial results of long-running
// jobs (robustness studies, simulation ensembles) so a killed run can
// resume without recomputation and still produce byte-identical final
// output. A job keeps its finished units in a Map, which rewrites the
// job's File with every unit as each one finishes.
//
// File format: a single JSON envelope
//
//	{"job": "<job>", "fingerprint": "<hex sha256>", "payload": {"<field>": {"<unit>": ...}}}
//
// written crash-safely through internal/fsatomic. The fingerprint hashes
// every input the payload depends on (model text, seeds, rates, grids);
// Open ignores a file whose fingerprint differs — a stale checkpoint from
// different parameters counts as a miss, never as data. Payload floats
// survive the round trip exactly: encoding/json emits the shortest
// decimal that parses back to the same float64, which is what makes a
// resumed run bit-identical to an uninterrupted one.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/fsatomic"
	"repro/internal/obs"
)

// Fingerprint hashes the given parts (order-sensitive, length-prefixed
// so {"ab",""} and {"a","b"} differ) into a hex digest for File.Fingerprint.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s;", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// File is a handle to one checkpoint file.
type File struct {
	// Path of the checkpoint file on disk.
	Path string
	// Job is a closed-set label naming the job kind (e.g.
	// "robustness.study") — used for metrics and stored in the envelope.
	Job string
	// Fingerprint identifies the job parameters (see Fingerprint).
	Fingerprint string
	// Obs receives checkpoint_writes_total{job} and
	// checkpoint_loads_total{job, outcome=hit|miss|stale}. Nil-safe.
	Obs *obs.Registry
}

type envelope struct {
	Job         string          `json:"job"`
	Fingerprint string          `json:"fingerprint"`
	Payload     json.RawMessage `json:"payload"`
}

// load reads the checkpoint into v. It returns (false, nil) when the
// file does not exist or carries a different job/fingerprint (stale:
// the caller starts fresh and the next save overwrites it). A file that
// exists but cannot be parsed is an error — fsatomic guarantees whole-
// file atomicity, so corruption means something outside this package
// touched the file and silently discarding it would mask that.
func (f *File) load(v any) (bool, error) {
	data, err := os.ReadFile(f.Path)
	if errors.Is(err, os.ErrNotExist) {
		f.Obs.Inc("checkpoint_loads_total", obs.L("job", f.Job), obs.L("outcome", "miss"))
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("checkpoint: read %s: %w", f.Path, err)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return false, fmt.Errorf("checkpoint: parse %s: %w", f.Path, err)
	}
	if env.Job != f.Job || env.Fingerprint != f.Fingerprint {
		f.Obs.Inc("checkpoint_loads_total", obs.L("job", f.Job), obs.L("outcome", "stale"))
		return false, nil
	}
	if err := json.Unmarshal(env.Payload, v); err != nil {
		return false, fmt.Errorf("checkpoint: parse %s payload: %w", f.Path, err)
	}
	f.Obs.Inc("checkpoint_loads_total", obs.L("job", f.Job), obs.L("outcome", "hit"))
	return true, nil
}

// save atomically writes v as the checkpoint's payload, replacing any
// previous contents (including a stale envelope from other parameters).
func (f *File) save(v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal payload: %w", err)
	}
	data, err := json.Marshal(envelope{Job: f.Job, Fingerprint: f.Fingerprint, Payload: payload})
	if err != nil {
		return fmt.Errorf("checkpoint: marshal envelope: %w", err)
	}
	if err := fsatomic.WriteFile(f.Path, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	f.Obs.Inc("checkpoint_writes_total", obs.L("job", f.Job))
	return nil
}

// Map is the set of finished units of one job, keyed by unit (a
// replication index, a study cell). With a File it is crash-safe: Put
// rewrites the file with every unit so far before it returns. A nil File
// keeps the units in memory only. Map is safe for concurrent use.
type Map[K comparable, V any] struct {
	file  *File
	field string

	mu    sync.Mutex
	units map[K]V
}

// Open returns the units f's payload holds under field: none when f is
// nil, when its file does not exist, or when the file belongs to other
// parameters.
func Open[K comparable, V any](f *File, field string) (*Map[K, V], error) {
	m := &Map[K, V]{file: f, field: field, units: map[K]V{}}
	if f == nil {
		return m, nil
	}
	var payload map[string]map[K]V
	if _, err := f.load(&payload); err != nil {
		return nil, err
	}
	if units := payload[field]; units != nil {
		m.units = units
	}
	return m, nil
}

// Get returns the unit stored under k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.units[k]
	return v, ok
}

// Put stores a finished unit and, with a File, saves every unit stored
// so far. Saves are serialized, so concurrent Puts never lose a unit.
func (m *Map[K, V]) Put(k K, v V) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.units[k] = v
	if m.file == nil {
		return nil
	}
	return m.file.save(map[string]map[K]V{m.field: m.units})
}
