package hub

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/fsatomic"
	"repro/internal/image"
)

// Client-side pull: Pull fetches an image's layer manifest, then only
// the layers the client has not cached, and reassembles the image. Each
// body streams through readPull in digest-framed chunks (the chunk list
// arrives in response headers, see stream.go), the response-size cap is
// enforced as bytes arrive, and verified chunks survive a failed
// attempt — the next attempt sends a Range request from the last
// verified chunk boundary instead of re-reading from byte zero.
// PullToFile additionally spools a layer's verified bytes to disk, so a
// pull interrupted across process restarts resumes too.

// pullProgress is the cross-attempt state of one pull operation.
type pullProgress struct {
	adv       string   // advertised digest (pinned on first response)
	chunkSize int      // framing granularity from the server
	chunks    []string // full-body chunk digest list
	total     int      // full body size (-1 until known)
	buf       []byte   // verified bytes (always chunk-aligned or complete)
	verified  int      // number of verified chunks in buf
	spool     *pullSpool
}

func (st *pullProgress) reset() {
	st.adv, st.chunks, st.buf, st.verified, st.total, st.chunkSize = "", nil, nil, 0, -1, 0
	if st.spool != nil {
		st.spool.discard()
	}
}

// absorb verifies one completed chunk against the manifest and commits
// it to the verified prefix (and the spool, when present).
func (st *pullProgress) absorb(chunk []byte) error {
	if st.verified >= len(st.chunks) {
		return fmt.Errorf("%w: body longer than chunk manifest (%d chunks)", ErrCorrupt, len(st.chunks))
	}
	sum := sha256.Sum256(chunk)
	if hex.EncodeToString(sum[:]) != st.chunks[st.verified] {
		return fmt.Errorf("%w: chunk %d/%d failed digest verification", ErrCorrupt, st.verified+1, len(st.chunks))
	}
	st.buf = append(st.buf, chunk...)
	st.verified++
	if st.spool != nil {
		if err := st.spool.commit(st, chunk); err != nil {
			return err
		}
	}
	return nil
}

// complete reports whether every byte (and chunk) has been verified.
func (st *pullProgress) complete() bool {
	if st.total >= 0 {
		return len(st.buf) == st.total
	}
	return st.verified == len(st.chunks)
}

// Pull downloads an image by manifest and returns it with its digest:
// fetch the layer manifest, pull only the layers not already in the
// client's layer cache, and reassemble. The manifest and every layer are
// chunk-verified on the wire, each layer is checked against its digest,
// and the flattened image against the manifest's image digest, which
// must equal the server's advertised one and, when expectedDigest is
// non-empty, that. Truncated reads resume from the last verified chunk;
// corrupt ones are re-pulled once (a second corruption means the stored
// content is bad).
func (c *Client) Pull(coll, name, tag, expectedDigest string) (*image.Image, string, error) {
	img, m, _, err := c.pull(coll, name, tag, expectedDigest, nil)
	if err != nil {
		return nil, "", err
	}
	return img, m.ImageDigest, nil
}

// PullToFile pulls coll/name:tag into destPath (written atomically) and
// returns the digest. The file holds exactly the bytes the hub stores:
// the pulled manifest followed by its layers, in the SCIF2 encoding.
// The layer being fetched is spooled next to destPath
// (".partial"/".pullstate" suffixes); if a previous PullToFile of the
// same content was interrupted — even in another process — that layer
// resumes from its spooled verified offset, then the spool is removed.
func (c *Client) PullToFile(coll, name, tag, expectedDigest, destPath string) (string, error) {
	spool := &pullSpool{dataPath: destPath + ".partial", statePath: destPath + ".pullstate"}
	img, m, manifest, err := c.pull(coll, name, tag, expectedDigest, spool)
	if err != nil {
		return "", err // spool files stay behind for the next run to resume
	}
	frames := make([][]byte, len(img.Layers))
	for i, l := range img.Layers {
		frames[i] = l.Bytes()
	}
	if err := fsatomic.WriteFile(destPath, image.AssembleLayered(manifest, frames), 0o644); err != nil {
		return "", err
	}
	spool.discard()
	return m.ImageDigest, nil
}

// pull fetches and reassembles one image, returning it with its manifest
// and the manifest's raw bytes. A non-nil spool persists layer progress
// (PullToFile).
func (c *Client) pull(coll, name, tag, expectedDigest string, spool *pullSpool) (*image.Image, *image.Manifest, []byte, error) {
	op := fmt.Sprintf("pull %s/%s:%s", coll, name, tag)
	url := fmt.Sprintf("%s/v1/%s/%s/%s/manifest", c.baseURL, coll, name, tag)
	var (
		m   *image.Manifest
		raw []byte
	)
	err := c.getVerified(op, url, expectedDigest, nil, func(body []byte, advertised string) error {
		got, err := image.ParseManifest(body)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if got.ImageDigest != advertised {
			return fmt.Errorf("%w: advertised digest %s != manifest digest %s", ErrCorrupt, advertised, got.ImageDigest)
		}
		m, raw = got, body
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	layers := make([]*image.Layer, len(m.Layers))
	for i, desc := range m.Layers {
		if l, ok := c.layerCache.get(desc.Digest); ok {
			c.obs.Inc("hub_client_layer_cache_hits_total")
			layers[i] = l
			continue
		}
		l, err := c.pullLayer(desc.Digest, spool)
		if err != nil {
			return nil, nil, nil, err
		}
		c.layerCache.add(l)
		layers[i] = l
	}
	img, err := image.AssembleFromLayers(m.Config, layers)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := img.VerifyDigest(m.ImageDigest); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: reassembled image: %v", ErrCorrupt, err)
	}
	return img, m, raw, nil
}

// pullLayer downloads one layer and checks it against its digest.
func (c *Client) pullLayer(digest string, spool *pullSpool) (*image.Layer, error) {
	var layer *image.Layer
	err := c.getVerified("pulllayer "+digest, c.baseURL+"/v1/_layers/"+digest, digest, spool, func(body []byte, _ string) error {
		l, err := image.DecodeLayer(body)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if l.Digest() != digest {
			return fmt.Errorf("%w: pulled layer digest %s != %s", ErrCorrupt, l.Digest(), digest)
		}
		layer = l
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.obs.Inc("hub_client_layers_pulled_total")
	c.obs.Add("hub_client_layer_bytes_pulled_total", float64(layer.Size()))
	return layer, nil
}

// getVerified runs one chunk-verified GET through the retry loop and
// hands the complete body, with the digest the server advertised for it,
// to decode. Verified chunks survive a failed attempt: the next one asks
// for the rest with a Range request. A body decode rejects is read again
// from byte zero. A non-nil spool that claims the body (pullSpool.claim)
// persists its verified chunks across processes until it is complete.
func (c *Client) getVerified(op, url, expectedDigest string, spool *pullSpool, decode func(body []byte, advertised string) error) error {
	st := &pullProgress{total: -1}
	if spool != nil && spool.claim(st, expectedDigest) {
		st.spool = spool
	}
	err := c.do(op, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		if len(st.buf) > 0 {
			req.Header.Set("Range", fmt.Sprintf("bytes=%d-", len(st.buf)))
			c.logf("%s resuming from verified offset %d", op, len(st.buf))
			c.obs.Inc("hub_client_pull_resumes_total")
		}
		return req, nil
	}, func(resp *http.Response) error {
		body, err := c.readPull(st, resp, expectedDigest)
		if err != nil {
			return err
		}
		if err := decode(body, st.adv); err != nil {
			st.reset()
			return err
		}
		return nil
	})
	if err == nil {
		st.spool.discard()
	}
	return err
}

// readPull consumes one response incrementally, returning the complete
// verified body or an error classified for the retry loop (transient
// read faults resume; chunk mismatches are ErrCorrupt).
func (c *Client) readPull(st *pullProgress, resp *http.Response, expectedDigest string) ([]byte, error) {
	adv := resp.Header.Get(headerDigest)
	if expectedDigest != "" && adv != expectedDigest {
		return nil, fmt.Errorf("%w: pulled digest %s != expected %s", ErrCorrupt, adv, expectedDigest)
	}
	if st.adv != "" && adv != st.adv {
		// The content was replaced between attempts; the verified prefix
		// belongs to something else. Start over.
		prev := st.adv
		st.reset()
		return nil, fmt.Errorf("hub: content changed during pull (digest %s -> %s)", prev, adv)
	}
	st.adv = adv

	chunkSize := 0
	var chunks []string
	if v := resp.Header.Get(headerChunkSize); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			chunkSize = n
		}
	}
	if v := resp.Header.Get(headerChunkList); chunkSize > 0 && v != "" {
		chunks = strings.Split(v, ",")
	}
	if chunks == nil {
		// serveVerified always frames its body; unframed bytes cannot be
		// verified chunk by chunk, so they are not accepted.
		st.reset()
		return nil, fmt.Errorf("%w: response carries no chunk manifest", ErrCorrupt)
	}
	if st.chunks != nil && !slices.Equal(st.chunks, chunks) {
		st.reset()
		return nil, fmt.Errorf("hub: chunk manifest changed during pull")
	}
	st.chunkSize, st.chunks = chunkSize, chunks

	switch resp.StatusCode {
	case http.StatusPartialContent:
		start, total, err := parseContentRange(resp.Header.Get("Content-Range"))
		if err != nil {
			st.reset()
			return nil, fmt.Errorf("hub: unparsable Content-Range: %v", err)
		}
		if start != len(st.buf) {
			st.reset()
			return nil, fmt.Errorf("hub: server resumed at %d, wanted %d", start, len(st.buf))
		}
		st.total = total
	default: // 200: a full body, regardless of any Range we sent
		if len(st.buf) > 0 {
			st.reset()
			st.adv = adv
			st.chunkSize, st.chunks = chunkSize, chunks
		}
		if resp.ContentLength >= 0 {
			st.total = int(resp.ContentLength)
		}
	}
	if st.total >= 0 && int64(st.total) > c.MaxResponseBytes {
		return nil, fmt.Errorf("hub: response exceeds %d-byte cap", c.MaxResponseBytes)
	}

	// Read through a buffer sized to the bytes still expected, up to
	// 32 KiB: most manifests and layers are far smaller.
	size := 32 << 10
	if rem := st.total - len(st.buf); st.total >= 0 && rem < size {
		size = max(rem, 1)
	}
	var pending []byte
	rbuf := make([]byte, size)
	for {
		n, err := resp.Body.Read(rbuf)
		if n > 0 {
			// Incremental size-cap enforcement: an oversized body aborts
			// here, mid-stream, not after a full download.
			if int64(len(st.buf)+len(pending)+n) > c.MaxResponseBytes {
				return nil, fmt.Errorf("hub: response exceeds %d-byte cap", c.MaxResponseBytes)
			}
			pending = append(pending, rbuf[:n]...)
			for len(pending) >= st.chunkSize {
				if aerr := st.absorb(pending[:st.chunkSize:st.chunkSize]); aerr != nil {
					return nil, aerr
				}
				pending = pending[st.chunkSize:]
				c.obs.Inc("hub_client_pull_chunks_verified_total")
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err // read/truncation faults classify as transient
		}
	}
	if len(pending) > 0 {
		// A trailing short chunk is only valid as the body's final chunk.
		if st.total >= 0 && len(st.buf)+len(pending) != st.total {
			return nil, io.ErrUnexpectedEOF
		}
		if st.verified != len(st.chunks)-1 {
			return nil, io.ErrUnexpectedEOF
		}
		if err := st.absorb(pending); err != nil {
			return nil, err
		}
		c.obs.Inc("hub_client_pull_chunks_verified_total")
	}
	if !st.complete() {
		return nil, io.ErrUnexpectedEOF
	}
	return st.buf, nil
}

// parseContentRange parses "bytes START-END/TOTAL".
func parseContentRange(h string) (start, total int, err error) {
	rest, found := strings.CutPrefix(h, "bytes ")
	if !found {
		return 0, 0, fmt.Errorf("missing bytes prefix in %q", h)
	}
	span, totalStr, found := strings.Cut(rest, "/")
	if !found {
		return 0, 0, fmt.Errorf("missing total in %q", h)
	}
	startStr, _, found := strings.Cut(span, "-")
	if !found {
		return 0, 0, fmt.Errorf("missing span in %q", h)
	}
	if start, err = strconv.Atoi(startStr); err != nil {
		return 0, 0, err
	}
	if total, err = strconv.Atoi(totalStr); err != nil {
		return 0, 0, err
	}
	return start, total, nil
}

// pullSpool persists pull progress on disk: verified bytes in dataPath,
// and a JSON state file naming the digest, framing, and verified offset.
// Bytes are appended before the state is updated, so a crash between the
// two leaves extra unacknowledged bytes that restore() truncates away.
type pullSpool struct {
	dataPath  string
	statePath string
	f         *fsatomic.AppendFile
}

type pullSpoolState struct {
	Digest    string `json:"digest"`
	ChunkSize int    `json:"chunkSize"`
	Total     int    `json:"total"`
	Offset    int    `json:"offset"`
	Verified  int    `json:"verified"`
	Chunks    string `json:"chunks"`
}

// claim binds the spool to the body with the given digest, loading any
// progress spooled for it into st. It reports false, leaving the spool
// untouched, when the spool holds progress of another body: a later
// fetch of the same pull may still resume it. Unreadable or
// inconsistent spool state is discarded, and the spool is claimed.
func (p *pullSpool) claim(st *pullProgress, digest string) bool {
	raw, err := os.ReadFile(p.statePath)
	if err != nil {
		p.discard()
		return true
	}
	var s pullSpoolState
	if err := json.Unmarshal(raw, &s); err != nil || s.Offset <= 0 || s.ChunkSize <= 0 {
		p.discard()
		return true
	}
	if s.Digest != digest {
		return false
	}
	data, err := os.ReadFile(p.dataPath)
	if err != nil || len(data) < s.Offset {
		p.discard()
		return true
	}
	st.adv = s.Digest
	st.chunkSize = s.ChunkSize
	st.total = s.Total
	st.buf = data[:s.Offset]
	st.verified = s.Verified
	if s.Chunks != "" {
		st.chunks = strings.Split(s.Chunks, ",")
	}
	// Drop unacknowledged tail bytes, if any, so appends line up.
	if len(data) > s.Offset {
		os.WriteFile(p.dataPath, st.buf, 0o644)
	}
	return true
}

// commit appends one verified chunk and records the new offset.
func (p *pullSpool) commit(st *pullProgress, chunk []byte) error {
	if p.f == nil {
		// First commit of this run: materialize the file to the verified
		// prefix that preceded this chunk, then append from there.
		if err := os.WriteFile(p.dataPath, st.buf[:len(st.buf)-len(chunk)], 0o644); err != nil {
			return fmt.Errorf("hub: pull spool: %w", err)
		}
		f, err := fsatomic.OpenAppend(p.dataPath)
		if err != nil {
			return fmt.Errorf("hub: pull spool: %w", err)
		}
		p.f = f
	}
	if err := p.f.Append(chunk); err != nil {
		return fmt.Errorf("hub: pull spool: %w", err)
	}
	state := pullSpoolState{
		Digest: st.adv, ChunkSize: st.chunkSize, Total: st.total,
		Offset: len(st.buf), Verified: st.verified,
		Chunks: strings.Join(st.chunks, ","),
	}
	raw, err := json.Marshal(state)
	if err != nil {
		return err
	}
	if err := fsatomic.WriteFile(p.statePath, raw, 0o644); err != nil {
		return fmt.Errorf("hub: pull spool: %w", err)
	}
	return nil
}

// discard wipes the spool (progress invalid, restarted, or complete).
func (p *pullSpool) discard() {
	if p == nil {
		return
	}
	if p.f != nil {
		p.f.Close()
		p.f = nil
	}
	os.Remove(p.dataPath)
	os.Remove(p.statePath)
}
