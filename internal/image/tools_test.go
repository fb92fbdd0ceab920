package image_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hostenv"
	"repro/internal/image"
)

// toolImages builds the paper's containers and the future-work model
// checker on the build host, keyed by tool.
func toolImages(t *testing.T) map[core.Tool]*image.Image {
	t.Helper()
	host, err := hostenv.ByName(hostenv.BuildHost)
	if err != nil {
		t.Fatal(err)
	}
	if err := host.InstallSingularity(); err != nil {
		t.Fatal(err)
	}
	fw := core.New()
	out := map[core.Tool]*image.Image{}
	for _, tool := range core.ExtendedTools() {
		res, err := fw.Build(tool, host)
		if err != nil {
			t.Fatalf("build %s: %v", tool, err)
		}
		out[tool] = res.Image
	}
	return out
}

func TestToolImageDigestsMatchBufferedOracle(t *testing.T) {
	for tool, img := range toolImages(t) {
		want, err := image.BufferedDigest(img)
		if err != nil {
			t.Fatal(err)
		}
		got, err := img.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: Digest = %s, buffered oracle = %s", tool, got, want)
		}
	}
}

// TestDigestAllocatesLessThanItsTar pins that Digest streams the tar
// into the hash: rendering the tar into a buffer allocates at least the
// stream's length, so an implementation that holds the tar fails.
func TestDigestAllocatesLessThanItsTar(t *testing.T) {
	for tool, img := range toolImages(t) {
		tarBytes, err := img.FS.MarshalTar()
		if err != nil {
			t.Fatal(err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := img.Digest(); err != nil {
					b.Fatal(err)
				}
			}
		})
		got := res.AllocedBytesPerOp()
		t.Logf("%s: Digest allocates %d B/op for a %d-byte tar stream", tool, got, len(tarBytes))
		if got >= int64(len(tarBytes)) {
			t.Errorf("%s: Digest allocates %d B/op, want fewer than the %d-byte tar stream", tool, got, len(tarBytes))
		}
	}
}
