// Package image defines the container image format (a SIF stand-in): a
// filesystem snapshot plus run metadata, serialized deterministically and
// addressed by a SHA-256 content digest. Identical build inputs therefore
// produce identical digests on every platform — the measurable form of the
// paper's "containers produce reproducible results across platforms" claim.
package image

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/vfs"
)

// Metadata is the run configuration carried by an image.
type Metadata struct {
	// Name and Tag identify the image (e.g. "pepa", "latest").
	Name string `json:"name"`
	Tag  string `json:"tag"`
	// BaseRef is the bootstrap reference the image was built from.
	BaseRef string            `json:"baseRef"`
	Help    string            `json:"help,omitempty"`
	Labels  map[string]string `json:"labels,omitempty"`
	// Environment is the shell fragment sourced before every run.
	Environment string `json:"environment,omitempty"`
	Runscript   string `json:"runscript,omitempty"`
	Test        string `json:"test,omitempty"`
	// RecipeSource preserves the definition file for provenance.
	RecipeSource string `json:"recipeSource,omitempty"`
	// BuildHost records where the image was built (informational only; it
	// is excluded from the digest so that bit-identical builds on
	// different hosts still produce the same content address).
	BuildHost string `json:"buildHost,omitempty"`
}

// Image is a built container image.
type Image struct {
	Meta Metadata
	FS   *vfs.FS
	// Layers is the content-addressed layer chain the filesystem was
	// assembled from (nil for monolithic images). Applying the chain in
	// order to an empty filesystem reproduces FS exactly; the chain never
	// affects Digest, which stays a function of the flattened content.
	Layers []*Layer
}

const magic = "SCIF1\n" // "simulated container image format"

// digestMeta is the digest-relevant subset of Metadata (provenance fields
// like BuildHost excluded).
type digestMeta struct {
	Name         string            `json:"name"`
	Tag          string            `json:"tag"`
	BaseRef      string            `json:"baseRef"`
	Help         string            `json:"help,omitempty"`
	Labels       map[string]string `json:"labels,omitempty"`
	Environment  string            `json:"environment,omitempty"`
	Runscript    string            `json:"runscript,omitempty"`
	Test         string            `json:"test,omitempty"`
	RecipeSource string            `json:"recipeSource,omitempty"`
}

// Digest returns the SHA-256 content digest "sha256:<hex>" of the image.
// It covers the filesystem (deterministic tar) and the run metadata, but
// not provenance fields. The tar is streamed, never held: one pass into
// io.Discard learns the length that prefixes it in the hash, and a
// second pass writes it into the hash.
func (img *Image) Digest() (string, error) {
	metaBytes, err := json.Marshal(digestMetaOf(img.Meta)) // Go JSON sorts map keys: deterministic
	if err != nil {
		return "", err
	}
	tarLen, err := img.FS.WriteTar(io.Discard)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(magic))
	binary.Write(h, binary.BigEndian, uint64(len(metaBytes)))
	h.Write(metaBytes)
	binary.Write(h, binary.BigEndian, uint64(tarLen))
	hashed, err := img.FS.WriteTar(h)
	if err != nil {
		return "", err
	}
	if hashed != tarLen {
		return "", fmt.Errorf("image: tar stream wrote %d bytes into the digest, %d when measured", hashed, tarLen)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// digestMetaOf projects a Metadata onto its digest-relevant subset.
func digestMetaOf(m Metadata) digestMeta {
	return digestMeta{
		Name: m.Name, Tag: m.Tag, BaseRef: m.BaseRef,
		Help: m.Help, Labels: sortedLabels(m.Labels),
		Environment: m.Environment, Runscript: m.Runscript,
		Test: m.Test, RecipeSource: m.RecipeSource,
	}
}

func sortedLabels(in map[string]string) map[string]string {
	if len(in) == 0 {
		return nil
	}
	out := make(map[string]string, len(in))
	keys := make([]string, 0, len(in))
	for k := range in {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out[k] = in[k]
	}
	return out
}

// Marshal serializes the image: magic, metadata length+JSON, tar
// length+bytes. The encoding is deterministic.
func (img *Image) Marshal() ([]byte, error) {
	tarBytes, err := img.FS.MarshalTar()
	if err != nil {
		return nil, err
	}
	metaBytes, err := json.Marshal(img.Meta)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString(magic)
	binary.Write(&buf, binary.BigEndian, uint64(len(metaBytes)))
	buf.Write(metaBytes)
	binary.Write(&buf, binary.BigEndian, uint64(len(tarBytes)))
	buf.Write(tarBytes)
	return buf.Bytes(), nil
}

// Unmarshal reconstructs an image from Marshal's or MarshalLayered's
// output, dispatching on the magic, and returns it with its content
// digest, so a caller never hashes a decoded image again. Legacy SCIF1
// blobs decode exactly as before; layered SCIF2 blobs are digest-verified
// layer by layer and flattened.
func Unmarshal(data []byte) (*Image, string, error) {
	if IsLayered(data) {
		return unmarshalLayered(data)
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, "", fmt.Errorf("image: bad magic (not a container image)")
	}
	rest := data[len(magic):]
	readChunk := func() ([]byte, error) {
		if len(rest) < 8 {
			return nil, fmt.Errorf("image: truncated stream")
		}
		n := binary.BigEndian.Uint64(rest[:8])
		rest = rest[8:]
		if uint64(len(rest)) < n {
			return nil, fmt.Errorf("image: truncated stream")
		}
		chunk := rest[:n]
		rest = rest[n:]
		return chunk, nil
	}
	metaBytes, err := readChunk()
	if err != nil {
		return nil, "", err
	}
	tarBytes, err := readChunk()
	if err != nil {
		return nil, "", err
	}
	if len(rest) != 0 {
		return nil, "", fmt.Errorf("image: %d trailing bytes", len(rest))
	}
	var meta Metadata
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return nil, "", fmt.Errorf("image: bad metadata: %w", err)
	}
	fs, err := vfs.UnmarshalTar(tarBytes)
	if err != nil {
		return nil, "", err
	}
	img := &Image{Meta: meta, FS: fs}
	d, err := img.Digest()
	if err != nil {
		return nil, "", err
	}
	return img, d, nil
}

// Ref renders "name:tag".
func (img *Image) Ref() string { return img.Meta.Name + ":" + img.Meta.Tag }

// VerifyDigest checks that the image's content matches an expected digest.
func (img *Image) VerifyDigest(expected string) error {
	got, err := img.Digest()
	if err != nil {
		return err
	}
	if got != expected {
		return errDigestMismatch(got, expected)
	}
	return nil
}

func errDigestMismatch(got, want string) error {
	return fmt.Errorf("image: digest mismatch: got %s, want %s", got, want)
}
