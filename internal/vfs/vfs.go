// Package vfs implements the in-memory POSIX-like filesystem that container
// images are built on: directories, regular files, symlinks, permission
// bits and ownership, with deterministic tar-stream serialization so that
// identical build inputs always produce byte-identical images (and hence
// identical content digests — the property the reproducibility harness
// checks).
package vfs

import (
	"archive/tar"
	"bytes"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"time"
)

// NodeKind distinguishes filesystem node types.
type NodeKind int

// Node kinds.
const (
	KindDir NodeKind = iota
	KindFile
	KindSymlink
)

func (k NodeKind) String() string {
	switch k {
	case KindDir:
		return "dir"
	case KindFile:
		return "file"
	case KindSymlink:
		return "symlink"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is one filesystem object.
type Node struct {
	Kind   NodeKind
	Mode   uint32 // permission bits (low 12 bits)
	UID    int
	GID    int
	Data   []byte // file content (KindFile)
	Target string // symlink target (KindSymlink)
}

// FS is an in-memory filesystem. The zero value is not usable; call New.
type FS struct {
	nodes map[string]*Node // key: clean absolute path; "/" is the root dir
}

// Common errors.
var (
	ErrNotExist = errors.New("vfs: no such file or directory")
	ErrExist    = errors.New("vfs: file exists")
	ErrNotDir   = errors.New("vfs: not a directory")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrNotEmpty = errors.New("vfs: directory not empty")
	ErrBadPath  = errors.New("vfs: invalid path")
	ErrLinkLoop = errors.New("vfs: too many levels of symbolic links")
)

// New returns a filesystem containing only the root directory.
func New() *FS {
	return &FS{nodes: map[string]*Node{
		"/": {Kind: KindDir, Mode: 0o755},
	}}
}

// Clean normalizes p to a clean absolute path.
func Clean(p string) (string, error) {
	if p == "" {
		return "", ErrBadPath
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	c := path.Clean(p)
	return c, nil
}

// resolve follows symlinks in every component except optionally the last.
func (fs *FS) resolve(p string, followLast bool) (string, error) {
	c, err := Clean(p)
	if err != nil {
		return "", err
	}
	const maxHops = 40
	hops := 0
	var walk func(string) (string, error)
	walk = func(cur string) (string, error) {
		if cur == "/" {
			return "/", nil
		}
		parts := strings.Split(strings.TrimPrefix(cur, "/"), "/")
		resolved := "/"
		for i, part := range parts {
			next := path.Join(resolved, part)
			n, ok := fs.nodes[next]
			if !ok {
				// The remainder of the path does not exist; no further
				// symlink resolution is possible. Callers decide whether a
				// missing node is an error.
				return path.Join(append([]string{next}, parts[i+1:]...)...), nil
			}
			if n.Kind == KindSymlink && (i < len(parts)-1 || followLast) {
				hops++
				if hops > maxHops {
					return "", ErrLinkLoop
				}
				target := n.Target
				if !strings.HasPrefix(target, "/") {
					target = path.Join(path.Dir(next), target)
				}
				rest := strings.Join(parts[i+1:], "/")
				return walk(path.Join(target, rest))
			}
			if i < len(parts)-1 && n.Kind != KindDir {
				return "", fmt.Errorf("%w: %s", ErrNotDir, next)
			}
			resolved = next
		}
		return resolved, nil
	}
	return walk(c)
}

// Lookup returns the node at p, following symlinks.
func (fs *FS) Lookup(p string) (*Node, error) {
	rp, err := fs.resolve(p, true)
	if err != nil {
		return nil, err
	}
	n, ok := fs.nodes[rp]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, rp)
	}
	return n, nil
}

// Lstat returns the node at p without following a final symlink.
func (fs *FS) Lstat(p string) (*Node, error) {
	rp, err := fs.resolve(p, false)
	if err != nil {
		return nil, err
	}
	n, ok := fs.nodes[rp]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, rp)
	}
	return n, nil
}

// Exists reports whether p resolves to an existing node.
func (fs *FS) Exists(p string) bool {
	_, err := fs.Lookup(p)
	return err == nil
}

// Mkdir creates a single directory. The parent must exist.
func (fs *FS) Mkdir(p string, mode uint32) error {
	rp, err := fs.resolve(p, false)
	if err != nil {
		return err
	}
	if _, ok := fs.nodes[rp]; ok {
		return fmt.Errorf("%w: %s", ErrExist, rp)
	}
	parent := path.Dir(rp)
	pn, ok := fs.nodes[parent]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, parent)
	}
	if pn.Kind != KindDir {
		return fmt.Errorf("%w: %s", ErrNotDir, parent)
	}
	fs.nodes[rp] = &Node{Kind: KindDir, Mode: mode & 0o7777}
	return nil
}

// MkdirAll creates a directory and all missing parents.
func (fs *FS) MkdirAll(p string, mode uint32) error {
	rp, err := fs.resolve(p, true)
	if err != nil {
		return err
	}
	if n, ok := fs.nodes[rp]; ok {
		if n.Kind != KindDir {
			return fmt.Errorf("%w: %s", ErrNotDir, rp)
		}
		return nil
	}
	parts := strings.Split(strings.TrimPrefix(rp, "/"), "/")
	cur := "/"
	for _, part := range parts {
		cur = path.Join(cur, part)
		if n, ok := fs.nodes[cur]; ok {
			if n.Kind != KindDir {
				return fmt.Errorf("%w: %s", ErrNotDir, cur)
			}
			continue
		}
		fs.nodes[cur] = &Node{Kind: KindDir, Mode: mode & 0o7777}
	}
	return nil
}

// WriteFile creates or replaces a regular file. The parent directory must
// exist.
func (fs *FS) WriteFile(p string, data []byte, mode uint32) error {
	rp, err := fs.resolve(p, true)
	if err != nil {
		return err
	}
	if n, ok := fs.nodes[rp]; ok && n.Kind == KindDir {
		return fmt.Errorf("%w: %s", ErrIsDir, rp)
	}
	parent := path.Dir(rp)
	pn, ok := fs.nodes[parent]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, parent)
	}
	if pn.Kind != KindDir {
		return fmt.Errorf("%w: %s", ErrNotDir, parent)
	}
	fs.nodes[rp] = &Node{Kind: KindFile, Mode: mode & 0o7777, Data: append([]byte(nil), data...)}
	return nil
}

// AppendFile appends to an existing file, creating it if absent.
func (fs *FS) AppendFile(p string, data []byte, mode uint32) error {
	rp, err := fs.resolve(p, true)
	if err != nil {
		return err
	}
	if n, ok := fs.nodes[rp]; ok {
		if n.Kind != KindFile {
			return fmt.Errorf("%w: %s", ErrIsDir, rp)
		}
		n.Data = append(n.Data, data...)
		return nil
	}
	return fs.WriteFile(p, data, mode)
}

// ReadFile returns a copy of the file's content.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	n, err := fs.Lookup(p)
	if err != nil {
		return nil, err
	}
	if n.Kind == KindDir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	if n.Kind == KindSymlink {
		return nil, fmt.Errorf("vfs: unresolved symlink %s", p)
	}
	return append([]byte(nil), n.Data...), nil
}

// Symlink creates a symbolic link at p pointing to target.
func (fs *FS) Symlink(target, p string) error {
	rp, err := fs.resolve(p, false)
	if err != nil {
		return err
	}
	if _, ok := fs.nodes[rp]; ok {
		return fmt.Errorf("%w: %s", ErrExist, rp)
	}
	parent := path.Dir(rp)
	pn, ok := fs.nodes[parent]
	if !ok || pn.Kind != KindDir {
		return fmt.Errorf("%w: %s", ErrNotExist, parent)
	}
	fs.nodes[rp] = &Node{Kind: KindSymlink, Mode: 0o777, Target: target}
	return nil
}

// Remove deletes a file, symlink, or empty directory.
func (fs *FS) Remove(p string) error {
	rp, err := fs.resolve(p, false)
	if err != nil {
		return err
	}
	if rp == "/" {
		return fmt.Errorf("%w: cannot remove root", ErrBadPath)
	}
	n, ok := fs.nodes[rp]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, rp)
	}
	if n.Kind == KindDir {
		for other := range fs.nodes {
			if strings.HasPrefix(other, rp+"/") {
				return fmt.Errorf("%w: %s", ErrNotEmpty, rp)
			}
		}
	}
	delete(fs.nodes, rp)
	return nil
}

// RemoveAll deletes a subtree (no error if absent).
func (fs *FS) RemoveAll(p string) error {
	rp, err := fs.resolve(p, false)
	if err != nil {
		return err
	}
	if rp == "/" {
		return fmt.Errorf("%w: cannot remove root", ErrBadPath)
	}
	delete(fs.nodes, rp)
	prefix := rp + "/"
	for other := range fs.nodes {
		if strings.HasPrefix(other, prefix) {
			delete(fs.nodes, other)
		}
	}
	return nil
}

// ReadDir lists the immediate children of a directory, sorted by name.
func (fs *FS) ReadDir(p string) ([]string, error) {
	rp, err := fs.resolve(p, true)
	if err != nil {
		return nil, err
	}
	n, ok := fs.nodes[rp]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, rp)
	}
	if n.Kind != KindDir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, rp)
	}
	var names []string
	prefix := rp + "/"
	if rp == "/" {
		prefix = "/"
	}
	for other := range fs.nodes {
		if other == rp || !strings.HasPrefix(other, prefix) {
			continue
		}
		rest := strings.TrimPrefix(other, prefix)
		if !strings.Contains(rest, "/") {
			names = append(names, rest)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Walk visits every path in lexical order.
func (fs *FS) Walk(fn func(p string, n *Node) error) error {
	paths := make([]string, 0, len(fs.nodes))
	for p := range fs.nodes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := fn(p, fs.nodes[p]); err != nil {
			return err
		}
	}
	return nil
}

// Size returns the number of nodes (including the root).
func (fs *FS) Size() int { return len(fs.nodes) }

// TotalBytes returns the sum of file content sizes.
func (fs *FS) TotalBytes() int64 {
	var total int64
	for _, n := range fs.nodes {
		total += int64(len(n.Data))
	}
	return total
}

// Clone returns a deep copy of the filesystem.
func (fs *FS) Clone() *FS {
	c := &FS{nodes: make(map[string]*Node, len(fs.nodes))}
	for p, n := range fs.nodes {
		cp := *n
		cp.Data = append([]byte(nil), n.Data...)
		c.nodes[p] = &cp
	}
	return c
}

// CopyInto copies the file or subtree at src in fs to dst in dstFS.
func (fs *FS) CopyInto(dstFS *FS, src, dst string) error {
	rsrc, err := fs.resolve(src, true)
	if err != nil {
		return err
	}
	n, ok := fs.nodes[rsrc]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, rsrc)
	}
	rdst, err := Clean(dst)
	if err != nil {
		return err
	}
	if n.Kind != KindDir {
		cp := *n
		cp.Data = append([]byte(nil), n.Data...)
		if err := dstFS.MkdirAll(path.Dir(rdst), 0o755); err != nil {
			return err
		}
		dstFS.nodes[rdst] = &cp
		return nil
	}
	if err := dstFS.MkdirAll(rdst, n.Mode); err != nil {
		return err
	}
	prefix := rsrc + "/"
	var subpaths []string
	for p := range fs.nodes {
		if strings.HasPrefix(p, prefix) {
			subpaths = append(subpaths, p)
		}
	}
	sort.Strings(subpaths)
	for _, p := range subpaths {
		sn := fs.nodes[p]
		target := path.Join(rdst, strings.TrimPrefix(p, prefix))
		cp := *sn
		cp.Data = append([]byte(nil), sn.Data...)
		if sn.Kind == KindDir {
			if err := dstFS.MkdirAll(target, sn.Mode); err != nil {
				return err
			}
			continue
		}
		if err := dstFS.MkdirAll(path.Dir(target), 0o755); err != nil {
			return err
		}
		dstFS.nodes[target] = &cp
	}
	return nil
}

// epoch is the fixed timestamp used in tar serialization: reproducible
// builds cannot embed wall-clock time.
var epoch = time.Unix(0, 0).UTC()

// WriteTar writes the filesystem to w as a deterministic tar stream:
// entries in lexical path order, fixed epoch timestamps, numeric owners
// only. It returns the number of bytes written. Every call writes the
// same bytes for the same tree, so a caller may write the stream once to
// learn its length and again to consume it.
func (fs *FS) WriteTar(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	tw := tar.NewWriter(cw)
	err := fs.Walk(func(p string, n *Node) error {
		if p == "/" {
			return nil
		}
		hdr := &tar.Header{
			Name:    strings.TrimPrefix(p, "/"),
			Mode:    int64(n.Mode),
			Uid:     n.UID,
			Gid:     n.GID,
			ModTime: epoch,
			Format:  tar.FormatPAX,
		}
		switch n.Kind {
		case KindDir:
			hdr.Typeflag = tar.TypeDir
			hdr.Name += "/"
		case KindFile:
			hdr.Typeflag = tar.TypeReg
			hdr.Size = int64(len(n.Data))
		case KindSymlink:
			hdr.Typeflag = tar.TypeSymlink
			hdr.Linkname = n.Target
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		if n.Kind == KindFile {
			if _, err := tw.Write(n.Data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return cw.n, err
	}
	err = tw.Close()
	return cw.n, err
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// MarshalTar returns the tar stream WriteTar writes.
func (fs *FS) MarshalTar() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := fs.WriteTar(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalTar reconstructs a filesystem from a tar stream produced by
// MarshalTar (or any tar with the same conventions).
func UnmarshalTar(data []byte) (*FS, error) {
	fs := New()
	tr := tar.NewReader(bytes.NewReader(data))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("vfs: reading tar: %w", err)
		}
		p := "/" + strings.TrimSuffix(hdr.Name, "/")
		cp, err := Clean(p)
		if err != nil {
			return nil, err
		}
		switch hdr.Typeflag {
		case tar.TypeDir:
			if err := fs.MkdirAll(cp, uint32(hdr.Mode)); err != nil {
				return nil, err
			}
			if n, ok := fs.nodes[cp]; ok {
				n.UID, n.GID = hdr.Uid, hdr.Gid
			}
		case tar.TypeReg:
			content, err := io.ReadAll(tr)
			if err != nil {
				return nil, err
			}
			if err := fs.MkdirAll(path.Dir(cp), 0o755); err != nil {
				return nil, err
			}
			fs.nodes[cp] = &Node{Kind: KindFile, Mode: uint32(hdr.Mode) & 0o7777, UID: hdr.Uid, GID: hdr.Gid, Data: content}
		case tar.TypeSymlink:
			if err := fs.MkdirAll(path.Dir(cp), 0o755); err != nil {
				return nil, err
			}
			fs.nodes[cp] = &Node{Kind: KindSymlink, Mode: 0o777, UID: hdr.Uid, GID: hdr.Gid, Target: hdr.Linkname}
		default:
			return nil, fmt.Errorf("vfs: unsupported tar entry type %q for %s", hdr.Typeflag, hdr.Name)
		}
	}
	return fs, nil
}

// Equal reports whether two filesystems have identical trees and contents.
func Equal(a, b *FS) bool {
	if len(a.nodes) != len(b.nodes) {
		return false
	}
	for p, an := range a.nodes {
		bn, ok := b.nodes[p]
		if !ok {
			return false
		}
		if an.Kind != bn.Kind || an.Mode != bn.Mode || an.UID != bn.UID || an.GID != bn.GID ||
			an.Target != bn.Target || !bytes.Equal(an.Data, bn.Data) {
			return false
		}
	}
	return true
}
