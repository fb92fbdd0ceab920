// Content-addressed layers and the layered (SCIF2) image encoding.
//
// A layer is an encoded vfs changeset addressed by the SHA-256 of its
// bytes; an image becomes a manifest — ordered layer digests plus the run
// configuration — and a layered blob is the manifest followed by the
// layer bodies. The flattened image (apply every layer to an empty
// filesystem) is bit-identical to the legacy monolithic form, so the
// legacy SCIF1 digest remains the image's identity: goldens, signatures,
// and hub digests are unchanged by layering.

package image

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/vfs"
)

const (
	// layerMagic prefixes every encoded layer ("simulated container layer").
	layerMagic = "SCL1\n"
	// magicLayered prefixes layered image blobs.
	magicLayered = "SCIF2\n"
	// ManifestSchemaVersion is the layered manifest schema this package
	// reads and writes.
	ManifestSchemaVersion = 2
)

// Layer is one content-addressed filesystem diff. The encoded bytes are
// canonical, so the digest is a true content address: equal diffs hash
// equal everywhere.
type Layer struct {
	cs      *vfs.Changeset
	encoded []byte
	digest  string
}

// NewLayer encodes a changeset into a layer.
func NewLayer(cs *vfs.Changeset) (*Layer, error) {
	body, err := cs.Marshal()
	if err != nil {
		return nil, err
	}
	enc := make([]byte, 0, len(layerMagic)+len(body))
	enc = append(enc, layerMagic...)
	enc = append(enc, body...)
	sum := sha256.Sum256(enc)
	return &Layer{cs: cs, encoded: enc, digest: "sha256:" + hex.EncodeToString(sum[:])}, nil
}

// DecodeLayer parses an encoded layer, keeping the original bytes so the
// digest (and re-encoding) is byte-exact.
func DecodeLayer(data []byte) (*Layer, error) {
	if len(data) < len(layerMagic) || string(data[:len(layerMagic)]) != layerMagic {
		return nil, fmt.Errorf("image: bad layer magic")
	}
	cs, err := vfs.UnmarshalChangeset(data[len(layerMagic):])
	if err != nil {
		return nil, fmt.Errorf("image: bad layer: %w", err)
	}
	enc := append([]byte(nil), data...)
	sum := sha256.Sum256(enc)
	return &Layer{cs: cs, encoded: enc, digest: "sha256:" + hex.EncodeToString(sum[:])}, nil
}

// Digest returns the layer's content address ("sha256:<hex>" of the
// encoded bytes).
func (l *Layer) Digest() string { return l.digest }

// Size returns the encoded size in bytes.
func (l *Layer) Size() int { return len(l.encoded) }

// Bytes returns the canonical encoded bytes. Callers must not mutate the
// returned slice.
func (l *Layer) Bytes() []byte { return l.encoded }

// Apply applies the layer's diff to fs in place.
func (l *Layer) Apply(fs *vfs.FS) error { return fs.Apply(l.cs) }

// LayerDescriptor references one layer from a manifest.
type LayerDescriptor struct {
	Digest string `json:"digest"`
	Size   int    `json:"size"`
}

// Manifest is the layered image descriptor: the full run configuration,
// the ordered layer chain, and the flattened legacy digest that remains
// the image's identity.
type Manifest struct {
	SchemaVersion int               `json:"schemaVersion"`
	Config        Metadata          `json:"config"`
	Layers        []LayerDescriptor `json:"layers"`
	// ImageDigest is the legacy (SCIF1, flattened) content digest of the
	// image the layer chain reconstructs. Pulls verify against it, so a
	// layered transfer proves it delivered exactly the monolithic image.
	ImageDigest string `json:"imageDigest"`
}

// manifestDigestPayload is the digest-relevant subset of a manifest:
// provenance (BuildHost) is excluded exactly as in the legacy digest, so
// the manifest digest is host-independent too.
type manifestDigestPayload struct {
	SchemaVersion int        `json:"schemaVersion"`
	Config        digestMeta `json:"config"`
	Layers        []string   `json:"layers"`
}

// Digest returns the manifest's own content address: SHA-256 over the
// digest-relevant config and the ordered layer digests. Two manifests
// describing the same layer chain and run configuration digest equally
// regardless of where they were built.
func (m *Manifest) Digest() (string, error) {
	digests := make([]string, 0, len(m.Layers))
	for _, d := range m.Layers {
		digests = append(digests, d.Digest)
	}
	payload, err := json.Marshal(manifestDigestPayload{
		SchemaVersion: m.SchemaVersion,
		Config:        digestMetaOf(m.Config),
		Layers:        digests,
	})
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(magicLayered))
	h.Write(payload)
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// Layered reports whether the image carries an explicit layer chain.
func (img *Image) Layered() bool { return len(img.Layers) > 0 }

// Layerize ensures the image has a layer chain: a monolithic image gains
// a single layer (its whole filesystem diffed against empty). Flattening
// that single layer reproduces the filesystem exactly, so the legacy
// digest is preserved. Images that already carry layers are unchanged.
func (img *Image) Layerize() error {
	if img.Layered() {
		return nil
	}
	l, err := NewLayer(vfs.Diff(vfs.New(), img.FS))
	if err != nil {
		return err
	}
	img.Layers = []*Layer{l}
	return nil
}

// Manifest builds the image's layered manifest (layerizing first if
// needed), including the flattened legacy digest.
func (img *Image) Manifest() (*Manifest, error) {
	if err := img.Layerize(); err != nil {
		return nil, err
	}
	d, err := img.Digest()
	if err != nil {
		return nil, err
	}
	m := &Manifest{SchemaVersion: ManifestSchemaVersion, Config: img.Meta, ImageDigest: d}
	for _, l := range img.Layers {
		m.Layers = append(m.Layers, LayerDescriptor{Digest: l.Digest(), Size: l.Size()})
	}
	return m, nil
}

// MarshalLayered serializes the image in the layered (SCIF2) format:
// magic, u64-framed manifest JSON, then one u64-framed encoded layer per
// manifest entry. Deterministic, like Marshal.
func (img *Image) MarshalLayered() ([]byte, error) {
	m, err := img.Manifest()
	if err != nil {
		return nil, err
	}
	manifestBytes, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	frames := make([][]byte, 0, len(img.Layers))
	for _, l := range img.Layers {
		frames = append(frames, l.Bytes())
	}
	return AssembleLayered(manifestBytes, frames), nil
}

// AssembleLayered builds a layered blob from manifest bytes and encoded
// layer frames — the structural inverse of LayeredFrames.
func AssembleLayered(manifest []byte, frames [][]byte) []byte {
	size := len(magicLayered) + 8 + len(manifest)
	for _, f := range frames {
		size += 8 + len(f)
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	buf.WriteString(magicLayered)
	binary.Write(buf, binary.BigEndian, uint64(len(manifest)))
	buf.Write(manifest)
	for _, f := range frames {
		binary.Write(buf, binary.BigEndian, uint64(len(f)))
		buf.Write(f)
	}
	return buf.Bytes()
}

// IsLayered reports whether blob starts with the layered (SCIF2) magic.
func IsLayered(blob []byte) bool {
	return len(blob) >= len(magicLayered) && string(blob[:len(magicLayered)]) == magicLayered
}

// LayeredFrames structurally splits a layered blob into its manifest
// bytes and encoded layer frames without decoding them. The returned
// slices alias blob.
func LayeredFrames(blob []byte) (manifest []byte, frames [][]byte, err error) {
	if !IsLayered(blob) {
		return nil, nil, fmt.Errorf("image: bad magic (not a layered image)")
	}
	rest := blob[len(magicLayered):]
	readChunk := func() ([]byte, error) {
		if len(rest) < 8 {
			return nil, fmt.Errorf("image: truncated layered stream")
		}
		n := binary.BigEndian.Uint64(rest[:8])
		rest = rest[8:]
		if uint64(len(rest)) < n {
			return nil, fmt.Errorf("image: truncated layered stream")
		}
		chunk := rest[:n]
		rest = rest[n:]
		return chunk, nil
	}
	manifest, err = readChunk()
	if err != nil {
		return nil, nil, err
	}
	for len(rest) > 0 {
		f, err := readChunk()
		if err != nil {
			return nil, nil, err
		}
		frames = append(frames, f)
	}
	return manifest, frames, nil
}

// ParseManifest decodes manifest JSON and validates the schema version.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("image: bad manifest: %w", err)
	}
	if m.SchemaVersion != ManifestSchemaVersion {
		return nil, fmt.Errorf("image: unsupported manifest schema version %d", m.SchemaVersion)
	}
	return &m, nil
}

// AssembleFromLayers reconstructs an image by applying the layer chain in
// order to an empty filesystem.
func AssembleFromLayers(meta Metadata, layers []*Layer) (*Image, error) {
	fs := vfs.New()
	for i, l := range layers {
		if err := l.Apply(fs); err != nil {
			return nil, fmt.Errorf("image: applying layer %d (%s): %w", i, l.Digest(), err)
		}
	}
	return &Image{Meta: meta, FS: fs, Layers: append([]*Layer(nil), layers...)}, nil
}

// LayersFromSnapshots diffs consecutive filesystem snapshots (starting
// from empty) into a layer chain: snapshots s0..sN produce layers
// L0 = diff(∅, s0), Li = diff(s(i-1), si). Applying the chain reproduces
// the final snapshot exactly.
func LayersFromSnapshots(snaps []*vfs.FS) ([]*Layer, error) {
	layers := make([]*Layer, 0, len(snaps))
	prev := vfs.New()
	for _, s := range snaps {
		l, err := NewLayer(vfs.Diff(prev, s))
		if err != nil {
			return nil, err
		}
		layers = append(layers, l)
		prev = s
	}
	return layers, nil
}

// unmarshalLayered decodes a layered (SCIF2) blob: every layer digest is
// checked against the manifest, the flattened filesystem is rebuilt, and
// the legacy image digest is computed once and checked against the
// manifest's ImageDigest when it carries one, so a decoded layered image
// is end-to-end integrity-checked.
func unmarshalLayered(data []byte) (*Image, string, error) {
	manifestBytes, frames, err := LayeredFrames(data)
	if err != nil {
		return nil, "", err
	}
	m, err := ParseManifest(manifestBytes)
	if err != nil {
		return nil, "", err
	}
	if len(frames) != len(m.Layers) {
		return nil, "", fmt.Errorf("image: manifest lists %d layers, blob carries %d", len(m.Layers), len(frames))
	}
	layers := make([]*Layer, len(frames))
	for i, f := range frames {
		l, err := DecodeLayer(f)
		if err != nil {
			return nil, "", fmt.Errorf("image: layer %d: %w", i, err)
		}
		if l.Digest() != m.Layers[i].Digest {
			return nil, "", fmt.Errorf("image: layer %d digest mismatch: got %s, want %s", i, l.Digest(), m.Layers[i].Digest)
		}
		if l.Size() != m.Layers[i].Size {
			return nil, "", fmt.Errorf("image: layer %d size mismatch: got %d, want %d", i, l.Size(), m.Layers[i].Size)
		}
		layers[i] = l
	}
	img, err := AssembleFromLayers(m.Config, layers)
	if err != nil {
		return nil, "", err
	}
	d, err := img.Digest()
	if err != nil {
		return nil, "", err
	}
	if m.ImageDigest != "" && d != m.ImageDigest {
		return nil, "", errDigestMismatch(d, m.ImageDigest)
	}
	return img, d, nil
}
