package vfs

import (
	"io"
	"testing"
)

// FuzzUnmarshalTar checks the tar reader never panics on corrupt input,
// that valid round trips are lossless, and that WriteTar reports the
// length of the stream MarshalTar returns.
func FuzzUnmarshalTar(f *testing.F) {
	mk := func(build func(fs *FS)) []byte {
		fs := New()
		build(fs)
		blob, err := fs.MarshalTar()
		if err != nil {
			panic(err)
		}
		return blob
	}
	f.Add([]byte{})
	f.Add([]byte("not a tar"))
	f.Add(mk(func(fs *FS) {}))
	f.Add(mk(func(fs *FS) {
		fs.MkdirAll("/a/b", 0o750)
		fs.WriteFile("/a/b/c", []byte("data"), 0o640)
		fs.Symlink("c", "/a/b/link")
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, err := UnmarshalTar(data)
		if err != nil {
			return
		}
		// Anything that unmarshals must re-marshal and round-trip.
		blob, err := fs.MarshalTar()
		if err != nil {
			t.Fatalf("remarshal failed: %v", err)
		}
		n, err := fs.WriteTar(io.Discard)
		if err != nil {
			t.Fatalf("WriteTar failed: %v", err)
		}
		if n != int64(len(blob)) {
			t.Fatalf("WriteTar wrote %d bytes, MarshalTar returned %d", n, len(blob))
		}
		back, err := UnmarshalTar(blob)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if !Equal(fs, back) {
			t.Fatal("canonical round trip not stable")
		}
	})
}
