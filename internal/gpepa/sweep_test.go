package gpepa

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/runctx"
)

func TestScalabilitySweepShape(t *testing.T) {
	m := MustParse(clientServerSrc)
	counts := []float64{2, 5, 10, 20, 40, 80, 160}
	points, err := ScalabilitySweep(m, "Servers", "Server", counts, 300, "request")
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(counts) {
		t.Fatalf("points = %d", len(points))
	}
	// Server-bound regime: throughput ~ servers * rs * (rb/(rs+rb))
	// utilisation factor; must increase monotonically before saturation.
	for i := 1; i < 4; i++ {
		if points[i].Throughput <= points[i-1].Throughput {
			t.Errorf("throughput not increasing at count=%g", counts[i])
		}
	}
	// Client-bound regime: doubling servers changes little.
	last, prev := points[len(points)-1].Throughput, points[len(points)-2].Throughput
	if math.Abs(last-prev)/prev > 0.05 {
		t.Errorf("no saturation: %g -> %g", prev, last)
	}
	knee := Saturation(points, 0.01)
	if knee < 0 {
		t.Error("Saturation found no knee")
	}
	if counts[knee] < 20 || counts[knee] > 160 {
		t.Errorf("knee at count=%g, expected between 20 and 160", counts[knee])
	}
}

func TestScalabilitySweepDoesNotMutateModel(t *testing.T) {
	m := MustParse(clientServerSrc)
	before := m.System.String()
	if _, err := ScalabilitySweep(m, "Servers", "Server", []float64{3, 6}, 50, "request"); err != nil {
		t.Fatal(err)
	}
	if m.System.String() != before {
		t.Error("sweep mutated the model's system equation")
	}
}

func TestScalabilitySweepErrors(t *testing.T) {
	m := MustParse(clientServerSrc)
	if _, err := ScalabilitySweep(m, "Servers", "Server", nil, 50, "request"); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := ScalabilitySweep(m, "Servers", "Server", []float64{1}, 0, "request"); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := ScalabilitySweep(m, "Servers", "Server", []float64{-1}, 50, "request"); err == nil {
		t.Error("negative population accepted")
	}
	for _, c := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := ScalabilitySweep(m, "Servers", "Server", []float64{1, c}, 50, "request"); err == nil || !strings.Contains(err.Error(), "population") {
			t.Errorf("population %g: err = %v, want it rejected before any point is solved", c, err)
		}
	}
	if _, err := ScalabilitySweep(m, "Ghost", "Server", []float64{1}, 50, "request"); err == nil {
		t.Error("unknown group accepted")
	}
	if _, err := ScalabilitySweep(m, "Servers", "Ghost", []float64{1}, 50, "request"); err == nil {
		t.Error("unknown component accepted")
	}
}

func TestSaturationEdgeCases(t *testing.T) {
	climbing := []SweepPoint{{Throughput: 1}, {Throughput: 2}, {Throughput: 4}}
	if got := Saturation(climbing, 0.01); got != -1 {
		t.Errorf("climbing sweep knee = %d, want -1", got)
	}
	flat := []SweepPoint{{Throughput: 5}, {Throughput: 5.001}}
	if got := Saturation(flat, 0.01); got != 1 {
		t.Errorf("flat sweep knee = %d, want 1", got)
	}
}

// TestScalabilitySweepWorkersBitIdentical: the point fan-out is
// GOMAXPROCS wide, and a sweep at GOMAXPROCS 4 matches one at 1 bit for
// bit.
func TestScalabilitySweepWorkersBitIdentical(t *testing.T) {
	m := MustParse(clientServerSrc)
	counts := []float64{2, 5, 10, 20}
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	ref, err := ScalabilitySweep(m, "Servers", "Server", counts, 100, "request")
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	got, err := ScalabilitySweep(m, "Servers", "Server", counts, 100, "request")
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Float64bits(got[i].Throughput) != math.Float64bits(ref[i].Throughput) {
			t.Fatalf("GOMAXPROCS 4: throughput diverged at count=%g", counts[i])
		}
		for j := range ref[i].Final {
			if math.Float64bits(got[i].Final[j]) != math.Float64bits(ref[i].Final[j]) {
				t.Fatalf("GOMAXPROCS 4: final populations diverged at count=%g", counts[i])
			}
		}
	}
}

// TestScalabilitySweepCanceled: a sweep stops on its context. Done before
// the call, no point starts; done mid-run, the running point stops before
// its next integration step. Either way the error is a
// *runctx.ErrCanceled counting the points that finished. The sweep used
// to integrate every point on context.Background, so a canceled sweep ran
// on: at a horizon of 1e7 each point runs for seconds until the step
// budget fails it.
func TestScalabilitySweepCanceled(t *testing.T) {
	m := MustParse(clientServerSrc)
	counts := []float64{2, 5, 10, 20}
	check := func(err error, cause error) *runctx.ErrCanceled {
		t.Helper()
		var ec *runctx.ErrCanceled
		if !errors.As(err, &ec) || !errors.Is(err, cause) {
			t.Fatalf("err = %v, want a *runctx.ErrCanceled wrapping %v", err, cause)
		}
		if ec.Op != "gpepa.sweep" || ec.Total != len(counts) || ec.Unit != "points" {
			t.Errorf("report = %s %d/%d %s, want gpepa.sweep over %d points", ec.Op, ec.Done, ec.Total, ec.Unit, len(counts))
		}
		return ec
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	points, err := ScalabilitySweepCtx(ctx, m, "Servers", "Server", counts, 100, "request")
	if points != nil {
		t.Errorf("canceled sweep returned %d points", len(points))
	}
	if ec := check(err, context.Canceled); ec.Done != 0 {
		t.Errorf("%d points finished under a context canceled before the call", ec.Done)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := ScalabilitySweepCtx(ctx, m, "Servers", "Server", counts, 1e7, "request")
		done <- err
	}()
	select {
	case err := <-done:
		if ec := check(err, context.DeadlineExceeded); ec.Done != 0 {
			t.Errorf("%d points of a 1e7 horizon finished within 50ms", ec.Done)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled sweep did not return within 5s")
	}
}
