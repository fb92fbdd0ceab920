package runtime

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/vfs"
)

// stagedRecipe has three %post stages so edits to the last stage can be
// isolated from the first two.
const stagedRecipe = `Bootstrap: library
From: centos:7.4

%post
    mkdir -p /opt/tool
    echo stage-one > /opt/tool/one
    export STAGE=one

%post
    echo stage-two-saw-$STAGE > /opt/tool/two
    cd /opt/tool

%post
    echo stage-three > three
    echo done

%runscript
    cat /opt/tool/one /opt/tool/two /opt/tool/three
`

// editLastStage returns stagedRecipe with its final %post stage edited to
// write an extra marker file (and print extra output).
func editLastStage(extra string) string {
	return strings.Replace(stagedRecipe,
		"    echo stage-three > three\n    echo done\n",
		"    echo stage-three > three\n    echo "+extra+" > marker\n    echo "+extra+"\n", 1)
}

func TestStagedBuildProducesLayeredImage(t *testing.T) {
	e := NewEngine()
	host := buildHost(t)
	res, err := e.Build(mustRecipe(t, stagedRecipe), host, BuildContext{}, "staged", "latest")
	if err != nil {
		t.Fatal(err)
	}
	// base + three %post stages.
	if got := len(res.Image.Layers); got != 4 {
		t.Fatalf("image has %d layers, want 4", got)
	}
	if res.StagesExecuted != 4 || res.StagesReplayed != 0 {
		t.Fatalf("cold build: executed=%d replayed=%d, want 4/0", res.StagesExecuted, res.StagesReplayed)
	}
	// The layer chain flattens to exactly the image filesystem.
	flat := vfs.New()
	for _, l := range res.Image.Layers {
		if err := l.Apply(flat); err != nil {
			t.Fatal(err)
		}
	}
	if !vfs.Equal(flat, res.Image.FS) {
		t.Fatal("layer chain does not flatten to the image filesystem")
	}
	// Session state (vars, cwd) crosses stage boundaries: stage two saw
	// STAGE=one, stage three wrote relative to /opt/tool.
	run, err := e.Run(res.Image, host, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stage-one", "stage-two-saw-one", "stage-three"} {
		if !strings.Contains(run.Stdout, want) {
			t.Errorf("run output missing %q: %q", want, run.Stdout)
		}
	}
}

func TestStagedBuildReplaysOnlyEditedStage(t *testing.T) {
	e := NewEngine()
	host := buildHost(t)
	cold, err := e.Build(mustRecipe(t, stagedRecipe), host, BuildContext{}, "staged", "v1")
	if err != nil {
		t.Fatal(err)
	}
	// Editing only the last stage re-executes exactly that one stage.
	warm, err := e.Build(mustRecipe(t, editLastStage("edited")), host, BuildContext{}, "staged", "v2")
	if err != nil {
		t.Fatal(err)
	}
	if warm.StagesExecuted != 1 || warm.StagesReplayed != 3 {
		t.Fatalf("warm build: executed=%d replayed=%d, want 1/3", warm.StagesExecuted, warm.StagesReplayed)
	}
	// The replayed build still produced a correct image: its %post output
	// includes the replayed stages' stdout, byte-identical.
	if !strings.Contains(warm.PostOutput, "edited") {
		t.Errorf("edited stage output missing: %q", warm.PostOutput)
	}
	coldPrefix := strings.TrimSuffix(cold.PostOutput, "done\n")
	if !strings.HasPrefix(warm.PostOutput, coldPrefix) {
		t.Errorf("replayed stage stdout differs:\ncold %q\nwarm %q", cold.PostOutput, warm.PostOutput)
	}
	// Unchanged prefix stages share identical layers across both images.
	for i := 0; i < 3; i++ {
		if cold.Image.Layers[i].Digest() != warm.Image.Layers[i].Digest() {
			t.Errorf("prefix layer %d digest differs across builds", i)
		}
	}
	if cold.Image.Layers[3].Digest() == warm.Image.Layers[3].Digest() {
		t.Error("edited stage produced an identical layer")
	}
	// A replayed build must match a from-scratch build of the same recipe
	// bit for bit: digests are a function of the recipe, not of whether
	// stages were replayed.
	scratch := NewEngine()
	ref, err := scratch.Build(mustRecipe(t, editLastStage("edited")), host, BuildContext{}, "staged", "v2")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Digest != warm.Digest {
		t.Errorf("replayed digest %s != from-scratch digest %s", warm.Digest, ref.Digest)
	}
	if ref.PostOutput != warm.PostOutput {
		t.Errorf("replayed %%post output differs from from-scratch build:\nscratch %q\nreplayed %q", ref.PostOutput, warm.PostOutput)
	}
}

func TestStagedBuildEditedEarlyStageInvalidatesSuffix(t *testing.T) {
	e := NewEngine()
	host := buildHost(t)
	if _, err := e.Build(mustRecipe(t, stagedRecipe), host, BuildContext{}, "staged", "v1"); err != nil {
		t.Fatal(err)
	}
	// Editing the FIRST stage invalidates everything after it.
	edited := strings.Replace(stagedRecipe, "echo stage-one", "echo stage-1", 1)
	res, err := e.Build(mustRecipe(t, edited), host, BuildContext{}, "staged", "v2")
	if err != nil {
		t.Fatal(err)
	}
	if res.StagesExecuted != 3 || res.StagesReplayed != 1 {
		t.Fatalf("after first-stage edit: executed=%d replayed=%d, want 3/1 (only base replays)", res.StagesExecuted, res.StagesReplayed)
	}
}

func TestLayerStoreDedupesAcrossImages(t *testing.T) {
	e := NewEngine()
	host := buildHost(t)
	a, err := e.Build(mustRecipe(t, stagedRecipe), host, BuildContext{}, "a", "latest")
	if err != nil {
		t.Fatal(err)
	}
	before := e.Layers().Len()
	// Same stages under a different name/tag: the metadata differs (so
	// the image digest differs) but every stage replays, so every
	// filesystem layer is shared, not re-stored.
	b, err := e.Build(mustRecipe(t, stagedRecipe), host, BuildContext{}, "b", "latest")
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Fatal("differently named images should not share a digest")
	}
	if got := e.Layers().Len(); got != before {
		t.Fatalf("identical layers stored twice: %d -> %d distinct layers", before, got)
	}
	// The two images reference pointer-identical canonical layers.
	for i := range a.Image.Layers {
		if a.Image.Layers[i] != b.Image.Layers[i] {
			t.Fatalf("layer %d not interned to a canonical instance", i)
		}
	}
	// A textually different stage that produces the same filesystem diff
	// (it only adds stdout) re-executes but its layer dedupes: stored
	// once, canonical instance shared.
	edited := strings.Replace(stagedRecipe, "    echo done\n", "    echo done\n    echo extra-stdout\n", 1)
	c, err := e.Build(mustRecipe(t, edited), host, BuildContext{}, "c", "latest")
	if err != nil {
		t.Fatal(err)
	}
	if c.StagesExecuted != 1 {
		t.Fatalf("edited stage: executed=%d, want 1", c.StagesExecuted)
	}
	if got := e.Layers().Len(); got != before {
		t.Fatalf("identical layer from a different script stored twice: %d -> %d", before, got)
	}
	if e.Layers().DedupeHits() == 0 {
		t.Fatal("expected a dedupe hit for the identical layer")
	}
	if c.Image.Layers[3] != a.Image.Layers[3] {
		t.Fatal("deduped layer not interned to the canonical instance")
	}
}

func TestFilesStageInvalidatedByContextEdit(t *testing.T) {
	e := NewEngine()
	host := buildHost(t)
	src := "Bootstrap: library\nFrom: centos:7.4\n%files\n    /data/in /opt/in\n%post\n    echo ok\n"
	ctxFS := vfs.New()
	if err := ctxFS.MkdirAll("/data", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ctxFS.WriteFile("/data/in", []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	first, err := e.Build(mustRecipe(t, src), host, BuildContext{FS: ctxFS}, "f", "1")
	if err != nil {
		t.Fatal(err)
	}
	if first.StagesExecuted != 3 {
		t.Fatalf("cold: executed=%d, want 3 (base, files, post)", first.StagesExecuted)
	}
	// Unchanged context: files stage replays.
	second, err := e.Build(mustRecipe(t, src), host, BuildContext{FS: ctxFS}, "f", "1")
	if err != nil {
		t.Fatal(err)
	}
	if second.StagesExecuted != 0 || second.StagesReplayed != 3 {
		t.Fatalf("warm: executed=%d replayed=%d, want 0/3", second.StagesExecuted, second.StagesReplayed)
	}
	// Edited context file: the %files stage (and the dependent %post
	// stage) re-executes even though the recipe text is unchanged.
	if err := ctxFS.WriteFile("/data/in", []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	third, err := e.Build(mustRecipe(t, src), host, BuildContext{FS: ctxFS}, "f", "1")
	if err != nil {
		t.Fatal(err)
	}
	if third.StagesExecuted != 2 || third.StagesReplayed != 1 {
		t.Fatalf("context edit: executed=%d replayed=%d, want 2/1", third.StagesExecuted, third.StagesReplayed)
	}
	got, err := third.Image.FS.ReadFile("/opt/in")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("image carries stale context file: %q", got)
	}
}

// TestCacheHitsConcurrentRace is the satellite race test: CacheHits must
// be readable while concurrent builds are in flight (run under -race).
func TestCacheHitsConcurrentRace(t *testing.T) {
	e := NewEngine()
	host := buildHost(t)
	rcp := mustRecipe(t, helloRecipe)
	if _, err := e.Build(rcp, host, BuildContext{}, "hello", "latest"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				// Mix whole-cache hits with misses (distinct tags) so both
				// the hit counter and the stage cache see concurrency.
				tag := "latest"
				if j%3 == 0 {
					tag = fmt.Sprintf("t%d-%d", i, j)
				}
				if _, err := e.Build(rcp, host, BuildContext{}, "hello", tag); err != nil {
					t.Error(err)
					return
				}
				_ = e.CacheHits() // concurrent read while builds run
			}
		}(i)
	}
	wg.Wait()
	if e.CacheHits() == 0 {
		t.Fatal("expected some cache hits")
	}
}

// TestInstallAppBinary is the satellite table-driven test for the
// slice-bounds panic on paths without a separator.
func TestInstallAppBinary(t *testing.T) {
	cases := []struct {
		name    string
		path    string
		wantErr bool
	}{
		{"nested path", "/opt/tool/bin/pepa", false},
		{"root-level path", "/pepa", false},
		{"bare name panicked before", "pepa", true},
		{"empty path", "", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := vfs.New()
			err := InstallAppBinary(fs, tc.path, "solver")
			if tc.wantErr {
				if err == nil {
					t.Fatalf("InstallAppBinary(%q) = nil, want error", tc.path)
				}
				return
			}
			if err != nil {
				t.Fatalf("InstallAppBinary(%q): %v", tc.path, err)
			}
			data, err := fs.ReadFile(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != "#!app:solver\n" {
				t.Fatalf("binary content = %q", data)
			}
		})
	}
}
