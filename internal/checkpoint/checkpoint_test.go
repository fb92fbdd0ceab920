package checkpoint

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/obs"
)

type payload struct {
	Reps map[int][]float64 `json:"reps"`
}

func TestCheckpointRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	f := &File{
		Path:        filepath.Join(t.TempDir(), "study.ckpt"),
		Job:         "test.job",
		Fingerprint: Fingerprint("seed=1", "rate=0.05"),
		Obs:         reg,
	}

	var got payload
	ok, err := f.load(&got)
	if err != nil || ok {
		t.Fatalf("Load on missing file = (%v, %v), want (false, nil)", ok, err)
	}
	if n := reg.Counter("checkpoint_loads_total", obs.L("job", "test.job"), obs.L("outcome", "miss")); n != 1 {
		t.Fatalf("miss count = %v", n)
	}

	// Floats must round-trip exactly: resume depends on it.
	want := payload{Reps: map[int][]float64{
		0: {0.1, 1.0 / 3.0, 2.220446049250313e-16},
		3: {1e300, -7.25},
	}}
	if err := f.save(want); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("checkpoint_writes_total", obs.L("job", "test.job")); n != 1 {
		t.Fatalf("write count = %v", n)
	}
	ok, err = f.load(&got)
	if err != nil || !ok {
		t.Fatalf("Load = (%v, %v), want (true, nil)", ok, err)
	}
	for k, vs := range want.Reps {
		for i, v := range vs {
			if got.Reps[k][i] != v {
				t.Fatalf("rep %d[%d] = %v, want exactly %v", k, i, got.Reps[k][i], v)
			}
		}
	}
	if n := reg.Counter("checkpoint_loads_total", obs.L("job", "test.job"), obs.L("outcome", "hit")); n != 1 {
		t.Fatalf("hit count = %v", n)
	}
}

func TestCheckpointStaleFingerprint(t *testing.T) {
	reg := obs.NewRegistry()
	path := filepath.Join(t.TempDir(), "study.ckpt")
	old := &File{Path: path, Job: "test.job", Fingerprint: Fingerprint("seed=1"), Obs: reg}
	if err := old.save(payload{Reps: map[int][]float64{0: {1}}}); err != nil {
		t.Fatal(err)
	}

	// Different parameters: the stored payload must not be returned.
	cur := &File{Path: path, Job: "test.job", Fingerprint: Fingerprint("seed=2"), Obs: reg}
	var got payload
	ok, err := cur.load(&got)
	if err != nil || ok {
		t.Fatalf("stale Load = (%v, %v), want (false, nil)", ok, err)
	}
	if n := reg.Counter("checkpoint_loads_total", obs.L("job", "test.job"), obs.L("outcome", "stale")); n != 1 {
		t.Fatalf("stale count = %v", n)
	}

	// Save under the new fingerprint replaces the stale file.
	if err := cur.save(payload{Reps: map[int][]float64{9: {9}}}); err != nil {
		t.Fatal(err)
	}
	ok, err = cur.load(&got)
	if err != nil || !ok || got.Reps[9][0] != 9 {
		t.Fatalf("reload after replace = (%v, %v, %+v)", ok, err, got)
	}
}

func TestCheckpointWrongJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	a := &File{Path: path, Job: "job.a", Fingerprint: Fingerprint("p")}
	if err := a.save(payload{}); err != nil {
		t.Fatal(err)
	}
	b := &File{Path: path, Job: "job.b", Fingerprint: Fingerprint("p")}
	var got payload
	if ok, err := b.load(&got); err != nil || ok {
		t.Fatalf("cross-job Load = (%v, %v), want (false, nil)", ok, err)
	}
}

func TestCheckpointCorruptFileIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := &File{Path: path, Job: "j", Fingerprint: Fingerprint("p")}
	var got payload
	if ok, err := f.load(&got); err == nil || ok {
		t.Fatalf("corrupt Load = (%v, %v), want error", ok, err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := Fingerprint("a", "b")
	if Fingerprint("a", "b") != base {
		t.Fatal("fingerprint not deterministic")
	}
	for _, other := range [][]string{{"a", "c"}, {"ab", ""}, {"a"}, {"b", "a"}} {
		if Fingerprint(other...) == base {
			t.Fatalf("collision with %v", other)
		}
	}
}

// TestMapNilFileKeepsUnitsInMemory: without a file the map still records
// units, and nothing reaches the disk or the write counter.
func TestMapNilFileKeepsUnitsInMemory(t *testing.T) {
	m, err := Open[int, []float64](nil, "reps")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put(3, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Get(3); !ok || v[0] != 0.5 {
		t.Fatalf("Get(3) = (%v, %v), want ([0.5], true)", v, ok)
	}
	if _, ok := m.Get(0); ok {
		t.Error("Get(0) found a unit never stored")
	}
}

// TestMapWritesThePayloadFile: a map's file is the envelope File.save
// writes for a struct payload with one field of the map's name, so files
// written before Map existed resume and are rewritten byte for byte.
func TestMapWritesThePayloadFile(t *testing.T) {
	dir := t.TempDir()
	file := func(name string) *File {
		return &File{Path: filepath.Join(dir, name), Job: "test.job", Fingerprint: Fingerprint("seed=1")}
	}
	want := payload{Reps: map[int][]float64{0: {0.1, 1.0 / 3.0}, 10: {1e300}, 2: {-7.25}}}
	if err := file("struct.ckpt").save(want); err != nil {
		t.Fatal(err)
	}
	m, err := Open[int, []float64](file("struct.ckpt"), "reps")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Open[int, []float64](file("map.ckpt"), "reps")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 10, 0} {
		v, ok := m.Get(k)
		if !ok {
			t.Fatalf("unit %d missing after Open", k)
		}
		if err := fresh.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	a, errA := os.ReadFile(filepath.Join(dir, "struct.ckpt"))
	b, errB := os.ReadFile(filepath.Join(dir, "map.ckpt"))
	if errA != nil || errB != nil || string(a) != string(b) {
		t.Errorf("map file differs from the struct payload file:\n%s\n%s", b, a)
	}
}

// TestMapStaleFingerprintOpensEmpty: a file written under other
// parameters contributes no unit, and the first Put replaces it.
func TestMapStaleFingerprintOpensEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "study.ckpt")
	old := &File{Path: path, Job: "test.job", Fingerprint: Fingerprint("seed=1")}
	if err := old.save(payload{Reps: map[int][]float64{0: {1}}}); err != nil {
		t.Fatal(err)
	}
	cur := &File{Path: path, Job: "test.job", Fingerprint: Fingerprint("seed=2")}
	m, err := Open[int, []float64](cur, "reps")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Get(0); ok {
		t.Fatalf("stale file's unit 0 = %v leaked into the map", v)
	}
	if err := m.Put(1, []float64{2}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if ok, err := cur.load(&got); !ok || err != nil || len(got.Reps) != 1 || got.Reps[1][0] != 2 {
		t.Fatalf("file after Put = %v (%v, %v), want only unit 1", got.Reps, ok, err)
	}
}

// TestMapConcurrentPutsLoseNoUnit: Puts from many goroutines each save
// the whole map; the file left behind holds every unit.
func TestMapConcurrentPutsLoseNoUnit(t *testing.T) {
	f := &File{Path: filepath.Join(t.TempDir(), "reps.ckpt"), Job: "test.job", Fingerprint: Fingerprint("n=32")}
	m, err := Open[int, []float64](f, "reps")
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Put(i, []float64{float64(i)}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	back, err := Open[int, []float64](f, "reps")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v, ok := back.Get(i); !ok || v[0] != float64(i) {
			t.Errorf("unit %d = (%v, %v) after reopening", i, v, ok)
		}
	}
}
