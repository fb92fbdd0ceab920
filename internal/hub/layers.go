package hub

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/image"
)

// Layer-level transfer, the hub's only image transfer protocol: images
// are negotiated by layer digest, so a push uploads only the layers the
// registry is missing and a pull downloads only the layers the client
// has not already cached — the registry analogue of the stage-level
// build cache. A monolithic image travels as its one layer. The protocol
// rides on the resilient primitives: the manifest and every layer body
// are served with chunk-digest framing and Range resume (stream.go), and
// every request runs through the retry loop and breaker.
//
// Server endpoints:
//
//	POST /v1/_layers/missing            {"digests":[...]} -> {"missing":[...]}
//	GET  /v1/_layers/{digest}           one encoded layer (chunk-framed)
//	PUT  /v1/_layers/{digest}           stage one layer for later manifests
//	GET  /v1/{c}/{n}/{t}/manifest       the stored image's layer manifest
//	                                    (chunk-framed)
//	PUT  /v1/{c}/{n}/{t}/manifest       commit a manifest; 412 + missing
//	                                    list when layers are absent
//
// Client operations, as named in attempt logs and in the op label of
// hub_client_attempts_total: "negotiate layers", "pushlayer <digest>",
// "push <ref>" (the manifest commit), "pull <ref>" (the manifest fetch)
// and "pulllayer <digest>".
//
// Staged layers are a content-addressed cache, not durable registry
// state: they are not journaled, and a restarted durable store re-learns
// its layer index from the installed blobs. A client whose staged layers
// were lost between negotiation and manifest commit sees 412 and simply
// re-uploads — the manifest commit is the only durable mutation, and it
// goes through Store.Put, so WAL ordering and digest verification are
// those of every stored image.

// layerContentDigest is the content address of one encoded layer frame.
func layerContentDigest(frame []byte) string {
	sum := sha256.Sum256(frame)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// indexLayersLocked records the layer frames of a stored blob in the
// content-addressed layer index. Caller holds s.mu. The frames alias
// blob, which is safe: installed blobs are immutable (Put replaces them
// wholesale).
func (s *Store) indexLayersLocked(blob []byte) {
	_, frames, err := image.LayeredFrames(blob)
	if err != nil {
		return // the blob was digest-verified upstream; be lenient here
	}
	for _, f := range frames {
		d := layerContentDigest(f)
		if _, ok := s.layers[d]; !ok {
			s.layers[d] = f
		}
	}
}

// PutLayer stages one encoded layer, verifying it decodes cleanly, and
// returns its content digest. Staging is idempotent and content-addressed;
// the layer becomes reachable registry state only once a manifest commit
// references it.
func (s *Store) PutLayer(data []byte) (string, error) {
	l, err := image.DecodeLayer(data) // copies data, validates the changeset
	if err != nil {
		return "", fmt.Errorf("hub: rejecting malformed layer: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.layers[l.Digest()]; !ok {
		s.layers[l.Digest()] = l.Bytes()
	}
	return l.Digest(), nil
}

// LayerBlob returns the encoded bytes of one layer. The slice is
// immutable; callers must not modify it.
func (s *Store) LayerBlob(digest string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.layers[digest]
	return f, ok
}

// MissingLayers reports which of the given digests the store does not
// hold, preserving order.
func (s *Store) MissingLayers(digests []string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	missing := []string{}
	for _, d := range digests {
		if _, ok := s.layers[d]; !ok {
			missing = append(missing, d)
		}
	}
	return missing
}

// layerFrames returns the encoded frames for digests in order, or the
// list of absent digests (checked and fetched under one lock, so a
// concurrent eviction cannot split the answer).
func (s *Store) layerFrames(digests []string) (frames [][]byte, missing []string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	frames = make([][]byte, 0, len(digests))
	for _, d := range digests {
		f, ok := s.layers[d]
		if !ok {
			missing = append(missing, d)
			continue
		}
		frames = append(frames, f)
	}
	if len(missing) > 0 {
		return nil, missing
	}
	return frames, nil
}

// LayerCount returns the number of distinct layers indexed.
func (s *Store) LayerCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.layers)
}

// handleLayerMissing answers POST /v1/_layers/missing: the negotiation
// step of a layered push.
func (s *Server) handleLayerMissing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := readBody(w, r, s.MaxUploadBytes)
	if err != nil {
		return
	}
	var req struct {
		Digests []string `json:"digests"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "bad negotiation request: "+err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string][]string{"missing": s.Store.MissingLayers(req.Digests)})
}

// handleLayer answers GET/PUT /v1/_layers/{digest}: one encoded layer,
// served with chunk framing and Range support.
func (s *Server) handleLayer(w http.ResponseWriter, r *http.Request, digest string) {
	switch r.Method {
	case http.MethodGet:
		blob, ok := s.Store.LayerBlob(digest)
		if !ok {
			http.Error(w, "layer not found", http.StatusNotFound)
			return
		}
		s.serveVerified(w, r, digest, digest, blob)
	case http.MethodPut, http.MethodPost:
		body, err := readBody(w, r, s.MaxUploadBytes)
		if err != nil {
			return
		}
		d, err := s.Store.PutLayer(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if d != digest {
			// The layer is valid and stays staged under its true content
			// address; the request just named the wrong one.
			http.Error(w, fmt.Sprintf("layer digest mismatch: body is %s, url says %s", d, digest), http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]string{"digest": d})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleManifest answers GET/PUT /v1/{coll}/{name}/{tag}/manifest. A
// quarantined entry answers 410 Gone with a typed error header: the
// bytes on hand are known-bad, and the fix is a re-push, not a retry.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request, coll, name, tag string) {
	switch r.Method {
	case http.MethodGet:
		blob, e, reason, ok := s.Store.view(coll, name, tag)
		if !ok {
			http.Error(w, "image not found", http.StatusNotFound)
			return
		}
		if e.Quarantined || reason != "" {
			w.Header().Set(headerHubError, hubErrQuarantined)
			http.Error(w, fmt.Sprintf("content quarantined (%s); re-push to repair", reason), http.StatusGone)
			return
		}
		manifest, _, err := image.LayeredFrames(blob)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		s.serveVerified(w, r, e.Digest, layerContentDigest(manifest), manifest)
	case http.MethodPut, http.MethodPost:
		body, err := readBody(w, r, s.MaxUploadBytes)
		if err != nil {
			return
		}
		m, err := image.ParseManifest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		digests := make([]string, 0, len(m.Layers))
		for _, d := range m.Layers {
			digests = append(digests, d.Digest)
		}
		frames, missing := s.Store.layerFrames(digests)
		if len(missing) > 0 {
			// Precondition failed: the client must upload these layers and
			// retry the commit.
			data, jerr := json.Marshal(map[string][]string{"missing": missing})
			if jerr != nil {
				http.Error(w, jerr.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusPreconditionFailed)
			w.Write(data)
			return
		}
		// Reassemble the layered blob from the client's exact manifest
		// bytes and the staged frames, then commit through Store.Put so the
		// result is digest-verified end to end (layer digests, sizes, and
		// the flattened image digest) and journaled like any other push.
		blob := image.AssembleLayered(body, frames)
		digest, err := s.Store.Put(coll, name, tag, blob)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]string{"digest": digest})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// LayerCache is the client-side content-addressed layer cache: layers
// pulled or pushed once are reused across images and tags, so a pull of
// an image sharing layers with one already seen transfers only the new
// layers. Safe for concurrent use and shareable between clients (pass it
// via ClientOptions.LayerCache).
type LayerCache struct {
	mu     sync.Mutex
	layers map[string]*image.Layer
	hits   int64
}

// NewLayerCache creates an empty layer cache.
func NewLayerCache() *LayerCache {
	return &LayerCache{layers: map[string]*image.Layer{}}
}

func (lc *LayerCache) get(digest string) (*image.Layer, bool) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	l, ok := lc.layers[digest]
	if ok {
		lc.hits++
	}
	return l, ok
}

func (lc *LayerCache) add(l *image.Layer) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if _, ok := lc.layers[l.Digest()]; !ok {
		lc.layers[l.Digest()] = l
	}
}

// Len returns the number of distinct layers cached.
func (lc *LayerCache) Len() int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return len(lc.layers)
}

// Hits counts lookups answered from the cache.
func (lc *LayerCache) Hits() int64 {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.hits
}

// LayerCache returns the client's layer cache.
func (c *Client) LayerCache() *LayerCache { return c.layerCache }

// MissingLayers asks the server which of the given layer digests it does
// not hold.
func (c *Client) MissingLayers(digests []string) ([]string, error) {
	body, err := json.Marshal(map[string][]string{"digests": digests})
	if err != nil {
		return nil, err
	}
	var out struct {
		Missing []string `json:"missing"`
	}
	err = c.do("negotiate layers", func() (*http.Request, error) {
		return http.NewRequest(http.MethodPost, c.BaseURL+"/v1/_layers/missing", bytes.NewReader(body))
	}, func(resp *http.Response) error {
		if err := jsonDecode(io.LimitReader(resp.Body, c.MaxResponseBytes), &out); err != nil {
			return fmt.Errorf("%w: decoding negotiation response: %v", ErrCorrupt, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out.Missing, nil
}

// Push uploads an image by layer negotiation, returning the server-
// computed digest: ask the server which layers it is missing, upload
// only those, then commit the manifest, whose server digest must match
// the locally computed one. A monolithic image is layerized (one layer)
// first. If the server loses staged layers between negotiation and
// commit (e.g. it restarted), the 412 answer triggers one full
// re-negotiation before giving up.
func (c *Client) Push(coll string, img *image.Image) (string, error) {
	m, err := img.Manifest()
	if err != nil {
		return "", err
	}
	manifestBytes, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	byDigest := make(map[string]*image.Layer, len(img.Layers))
	digests := make([]string, 0, len(img.Layers))
	for _, l := range img.Layers {
		byDigest[l.Digest()] = l
		digests = append(digests, l.Digest())
	}
	for attempt := 0; ; attempt++ {
		missing, err := c.MissingLayers(digests)
		if err != nil {
			return "", err
		}
		c.obs.Add("hub_client_layers_skipped_total", float64(len(digests)-len(missing)))
		for _, d := range missing {
			l, ok := byDigest[d]
			if !ok {
				return "", fmt.Errorf("hub: server wants layer %s the image does not carry", d)
			}
			if err := c.pushLayer(l); err != nil {
				return "", err
			}
		}
		err = c.putManifest(coll, img.Meta.Name, img.Meta.Tag, manifestBytes, m.ImageDigest)
		if err == nil {
			for _, l := range img.Layers {
				c.layerCache.add(l)
			}
			return m.ImageDigest, nil
		}
		var he *HTTPError
		if errors.As(err, &he) && he.Status == http.StatusPreconditionFailed && attempt == 0 {
			c.logf("push %s/%s:%s: staged layers lost, re-negotiating", coll, img.Meta.Name, img.Meta.Tag)
			continue
		}
		return "", err
	}
}

// pushLayer uploads one encoded layer, verifying the server's echoed
// digest.
func (c *Client) pushLayer(l *image.Layer) error {
	op := "pushlayer " + l.Digest()
	url := c.BaseURL + "/v1/_layers/" + l.Digest()
	err := c.do(op, func() (*http.Request, error) {
		return http.NewRequest(http.MethodPut, url, bytes.NewReader(l.Bytes()))
	}, func(resp *http.Response) error {
		var out struct {
			Digest string `json:"digest"`
		}
		if err := jsonDecode(io.LimitReader(resp.Body, c.MaxResponseBytes), &out); err != nil {
			return fmt.Errorf("%w: decoding layer push response: %v", ErrCorrupt, err)
		}
		if out.Digest != l.Digest() {
			return fmt.Errorf("%w: server layer digest %s != local %s", ErrCorrupt, out.Digest, l.Digest())
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.obs.Inc("hub_client_layers_pushed_total")
	c.obs.Add("hub_client_layer_bytes_pushed_total", float64(l.Size()))
	return nil
}

// putManifest commits a manifest and verifies the server-computed digest
// against the locally known flattened digest. A 412 (missing layers)
// surfaces as *HTTPError for the caller to re-negotiate.
func (c *Client) putManifest(coll, name, tag string, manifestBytes []byte, localDigest string) error {
	op := fmt.Sprintf("push %s/%s:%s", coll, name, tag)
	url := fmt.Sprintf("%s/v1/%s/%s/%s/manifest", c.BaseURL, coll, name, tag)
	return c.do(op, func() (*http.Request, error) {
		return http.NewRequest(http.MethodPut, url, bytes.NewReader(manifestBytes))
	}, func(resp *http.Response) error {
		var out struct {
			Digest string `json:"digest"`
		}
		if err := jsonDecode(io.LimitReader(resp.Body, c.MaxResponseBytes), &out); err != nil {
			return fmt.Errorf("%w: decoding manifest response: %v", ErrCorrupt, err)
		}
		if out.Digest != localDigest {
			return fmt.Errorf("%w: server digest %s != local digest %s", ErrCorrupt, out.Digest, localDigest)
		}
		return nil
	})
}
