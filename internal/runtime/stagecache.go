// The stage-level incremental build cache: every build stage (base
// bootstrap, %files, each %post section) emits a content-addressed image
// layer, and the outcome of each stage is cached under a key derived from
// the stage's inputs and the parent layer-chain digest. A rebuild after
// editing only the last stage replays every earlier layer from the cache
// and re-executes just the edited stage — the incremental-build property
// stage-cacheable container builders (Docker, img, kaniko) rely on,
// grounded here by Weber's reproducible-builds-with-containers work.
package runtime

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sort"
	"sync"

	"repro/internal/image"
)

// LayerStore is a content-addressed, deduplicating store of image layers:
// identical layers (same diff bytes, hence same digest) are stored once
// and shared by every image that references them, no matter which build
// or host produced them.
type LayerStore struct {
	mu     sync.Mutex
	layers map[string]*image.Layer
	dedupe int64
}

// NewLayerStore creates an empty layer store.
func NewLayerStore() *LayerStore {
	return &LayerStore{layers: map[string]*image.Layer{}}
}

// Put interns a layer: the first Put of a digest stores it, and every
// later Put of the same digest returns the canonical stored instance (and
// counts as a dedupe hit). Callers should adopt the returned pointer.
func (s *LayerStore) Put(l *image.Layer) *image.Layer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if got, ok := s.layers[l.Digest()]; ok {
		s.dedupe++
		return got
	}
	s.layers[l.Digest()] = l
	return l
}

// Get returns the layer stored under digest.
func (s *LayerStore) Get(digest string) (*image.Layer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.layers[digest]
	return l, ok
}

// Len returns the number of distinct layers stored.
func (s *LayerStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.layers)
}

// DedupeHits counts Puts that were answered by an already-stored layer.
func (s *LayerStore) DedupeHits() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dedupe
}

// stageRec is the cached outcome of one build stage: the layer it
// emitted, the stdout it produced, and the shell session state (variables
// and working directory) it left behind, so a replayed stage restores the
// exact state the next stage would have seen.
type stageRec struct {
	layer  *image.Layer
	output string
	vars   map[string]string
	cwd    string
}

// stageKey derives the cache key of one stage from its kind, the digest
// of the parent layer chain, and the stage's own inputs. Any change to an
// earlier stage changes the chain digest and therefore invalidates this
// stage and everything after it; the key contains nothing host-specific,
// so stages cached by one host replay for every host.
func stageKey(kind, parentChain string, inputs ...string) string {
	h := sha256.New()
	io.WriteString(h, kind)
	h.Write([]byte{0})
	io.WriteString(h, parentChain)
	for _, in := range inputs {
		h.Write([]byte{0})
		io.WriteString(h, in)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// chainDigest extends a layer-chain digest by one layer.
func chainDigest(parent, layerDigest string) string {
	h := sha256.New()
	io.WriteString(h, parent)
	h.Write([]byte{0})
	io.WriteString(h, layerDigest)
	return hex.EncodeToString(h.Sum(nil))
}

// hashSession fingerprints the shell session state a %post stage starts
// from: the variables and working directory. Two textually identical
// scripts starting from different session states are different stages.
func hashSession(vars map[string]string, cwd string) string {
	keys := make([]string, 0, len(vars))
	for k := range vars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	io.WriteString(h, cwd)
	for _, k := range keys {
		h.Write([]byte{0})
		io.WriteString(h, k)
		h.Write([]byte{1})
		io.WriteString(h, vars[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// copyVars deep-copies a variable map.
func copyVars(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// stageLookup consults the stage cache.
func (e *Engine) stageLookup(key string) (*stageRec, bool) {
	e.stageMu.Lock()
	defer e.stageMu.Unlock()
	rec, ok := e.stages[key]
	return rec, ok
}

// stageStore records a stage outcome.
func (e *Engine) stageStore(key string, rec *stageRec) {
	e.stageMu.Lock()
	defer e.stageMu.Unlock()
	e.stages[key] = rec
}
