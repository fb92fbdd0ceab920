package hub

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/image"
)

// chaosOptions are fast, fully deterministic client knobs for chaos
// tests: no real sleeping, tiny backoff, fixed jitter seed.
func chaosOptions(attempts int) ClientOptions {
	return ClientOptions{
		Retry:      RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		JitterSeed: 7,
		Sleep:      func(time.Duration) {},
	}
}

// faultyServer starts a hub whose handler is wrapped in the plan.
func faultyServer(t *testing.T, plan *faultinject.Plan) string {
	t.Helper()
	srv := NewServer(NewStore())
	srv.EnableFaults(plan)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestChaosPullConverges is the headline scenario: two 503s then one
// digest-corrupting bit flip on the pull path, and the client still
// converges to the correct digest within its attempt budget.
func TestChaosPullConverges(t *testing.T) {
	plan := faultinject.NewPlan(1,
		faultinject.Rule{Match: "GET /v1/chaos/", Kind: faultinject.KindStatus, Status: 503, First: 2},
		faultinject.Rule{Match: "GET /v1/chaos/", Kind: faultinject.KindCorrupt, First: 1},
	)
	url := faultyServer(t, plan)
	c := NewClientWithOptions(url, chaosOptions(6))

	img := testImage("pepa", "latest", "solver-under-chaos")
	digest, err := c.Push("chaos", img)
	if err != nil {
		t.Fatal(err)
	}
	pulled, gotDigest, err := c.Pull("chaos", "pepa", "latest", digest)
	if err != nil {
		t.Fatalf("pull did not converge: %v", err)
	}
	if gotDigest != digest {
		t.Errorf("digest = %s, want %s", gotDigest, digest)
	}
	data, err := pulled.FS.ReadFile("/payload")
	if err != nil || string(data) != "solver-under-chaos" {
		t.Errorf("payload = %q, err %v", data, err)
	}

	log := strings.Join(c.AttemptsMatching("pull chaos/pepa:latest"), "\n")
	for _, want := range []string{
		"attempt 1/6: HTTP 503 (transient)",
		"attempt 2/6: HTTP 503 (transient)",
		"attempt 3/6: corrupt response (re-pulling once)",
		"attempt 4/6: ok",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("attempt log missing %q:\n%s", want, log)
		}
	}
}

// TestChaosTruncatedPullRetries cuts the pull body mid-stream twice;
// the truncation classifies as transient and the third attempt wins.
func TestChaosTruncatedPullRetries(t *testing.T) {
	plan := faultinject.NewPlan(2,
		faultinject.Rule{Match: "GET /v1/chaos/", Kind: faultinject.KindTruncate, First: 2},
	)
	url := faultyServer(t, plan)
	c := NewClientWithOptions(url, chaosOptions(5))

	img := testImage("pepa", "latest", strings.Repeat("big-payload ", 200))
	digest, err := c.Push("chaos", img)
	if err != nil {
		t.Fatal(err)
	}
	if _, gotDigest, err := c.Pull("chaos", "pepa", "latest", digest); err != nil {
		t.Fatalf("pull did not converge: %v", err)
	} else if gotDigest != digest {
		t.Errorf("digest = %s, want %s", gotDigest, digest)
	}
	log := strings.Join(c.AttemptsMatching("pull chaos/pepa:latest"), "\n")
	if !strings.Contains(log, "truncated response (transient)") {
		t.Errorf("truncation not classified transient:\n%s", log)
	}
}

// TestChaosPushListUnderFaults exercises the other verbs: a 503 on the
// push's manifest commit and a truncated list response, both retried to
// success.
func TestChaosPushListUnderFaults(t *testing.T) {
	plan := faultinject.NewPlan(3,
		faultinject.Rule{Match: "PUT /v1/chaos/", Kind: faultinject.KindStatus, Status: 503, First: 1},
		faultinject.Rule{Match: "GET /v1/chaos", Kind: faultinject.KindTruncate, First: 1},
	)
	url := faultyServer(t, plan)
	c := NewClientWithOptions(url, chaosOptions(4))

	digest, err := c.Push("chaos", testImage("pepa", "latest", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := c.List("chaos")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Digest != digest {
		t.Errorf("entries = %+v", entries)
	}
	log := strings.Join(c.AttemptLog(), "\n")
	if !strings.Contains(log, "push chaos/pepa:latest attempt 1/4: HTTP 503 (transient)") {
		t.Errorf("push 503 not retried:\n%s", log)
	}
	if !strings.Contains(log, "list chaos attempt 2/4: ok") {
		t.Errorf("list truncation not retried:\n%s", log)
	}
}

// TestChaosRemoteBuildRetries injects a 503 into the auto-build
// endpoint; the build is idempotent so the retry converges.
func TestChaosRemoteBuildRetries(t *testing.T) {
	srv := NewServer(NewStore())
	srv.EnableAutoBuild(&stubBuilder{})
	srv.EnableFaults(faultinject.NewPlan(4,
		faultinject.Rule{Match: "POST /v1/build/", Kind: faultinject.KindStatus, Status: 503, First: 1},
	))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClientWithOptions(ts.URL, chaosOptions(3))

	digest, err := c.RemoteBuild("coll", "pepa", "latest", "Bootstrap: library\nFrom: centos:7.4\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(digest, "sha256:") {
		t.Errorf("digest = %q", digest)
	}
	log := strings.Join(c.AttemptLog(), "\n")
	if !strings.Contains(log, "build coll/pepa:latest attempt 2/3: ok") {
		t.Errorf("build 503 not retried:\n%s", log)
	}
}

// TestChaosDoubleCorruptionGivesUp: corruption is retried exactly once;
// a second corrupt payload means the stored content is bad.
func TestChaosDoubleCorruptionGivesUp(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	cleanTS := httptest.NewServer(srv.Handler())
	defer cleanTS.Close()
	digest, err := NewClientWithOptions(cleanTS.URL, chaosOptions(2)).Push("chaos", testImage("pepa", "latest", "v1"))
	if err != nil {
		t.Fatal(err)
	}

	plan := faultinject.NewPlan(5,
		faultinject.Rule{Match: "GET /v1/chaos/", Kind: faultinject.KindCorrupt, First: 10},
	)
	c := NewClientWithOptions(cleanTS.URL, chaosOptions(8))
	c.HTTP.Transport = plan.Transport(nil)
	_, _, err = c.Pull("chaos", "pepa", "latest", digest)
	if err == nil {
		t.Fatal("pull of persistently corrupt content succeeded")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
	log := c.AttemptsMatching("pull chaos/pepa:latest attempt")
	if len(log) != 2 {
		t.Errorf("corrupt pull made %d attempts, want exactly 2:\n%s", len(log), strings.Join(log, "\n"))
	}
	if !strings.Contains(strings.Join(log, "\n"), "corrupt again; giving up") {
		t.Errorf("second corruption not terminal:\n%s", strings.Join(log, "\n"))
	}
}

// TestChaosAttemptLogDeterministic replays the same fault plan and
// jitter seed against two fresh servers: the attempt logs (including
// backoff durations) must be byte-identical.
func TestChaosAttemptLogDeterministic(t *testing.T) {
	run := func() []string {
		srv := NewServer(NewStore())
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		seed := NewClientWithOptions(ts.URL, chaosOptions(2))
		digest, err := seed.Push("chaos", testImage("pepa", "latest", "v1"))
		if err != nil {
			t.Fatal(err)
		}
		plan := faultinject.NewPlan(11,
			faultinject.Rule{Kind: faultinject.KindConn, First: 1},
			faultinject.Rule{Kind: faultinject.KindStatus, Status: 503, First: 1},
			faultinject.Rule{Kind: faultinject.KindTruncate, First: 1},
		)
		c := NewClientWithOptions(ts.URL, chaosOptions(6))
		c.HTTP.Transport = plan.Transport(nil)
		if _, gotDigest, err := c.Pull("chaos", "pepa", "latest", digest); err != nil {
			t.Fatalf("pull did not converge: %v", err)
		} else if gotDigest != digest {
			t.Errorf("digest = %s, want %s", gotDigest, digest)
		}
		return c.AttemptLog()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("attempt logs differ between identical seeds:\n%s\n--- vs ---\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
	joined := strings.Join(a, "\n")
	for _, want := range []string{
		"transport error (transient)",
		"HTTP 503 (transient)",
		"truncated response (transient)",
		"attempt 4/6: ok",
		"backoff",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("log missing %q:\n%s", want, joined)
		}
	}
}

// TestChaosBreakerTripsAndRecovers drives the breaker through its whole
// trajectory with operation counts only — no wall clock involved.
func TestChaosBreakerTripsAndRecovers(t *testing.T) {
	srv := NewServer(NewStore())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := NewClientWithOptions(ts.URL, chaosOptions(2)).Push("chaos", testImage("pepa", "latest", "v1")); err != nil {
		t.Fatal(err)
	}

	plan := faultinject.NewPlan(6, faultinject.Rule{Kind: faultinject.KindConn, First: 3})
	opts := chaosOptions(10)
	opts.BreakerThreshold = 3
	opts.BreakerCooldown = 2
	c := NewClientWithOptions(ts.URL, opts)
	c.HTTP.Transport = plan.Transport(nil)

	// Op 1: three conn errors trip the breaker; attempt 4 is rejected.
	_, err := c.List("chaos")
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if got := c.Breaker().State(); got != BreakerOpen {
		t.Errorf("breaker state = %v, want open", got)
	}
	if !strings.Contains(strings.Join(c.AttemptLog(), "\n"), "rejected (breaker open)") {
		t.Error("rejection not logged")
	}

	// Op 2: the cooldown elapses (counted in rejections), the half-open
	// probe goes through against a now-healthy plan, and the breaker closes.
	entries, err := c.List("chaos")
	if err != nil {
		t.Fatalf("probe op failed: %v", err)
	}
	if len(entries) != 1 {
		t.Errorf("entries = %+v", entries)
	}
	if got := c.Breaker().State(); got != BreakerClosed {
		t.Errorf("breaker state after probe = %v, want closed", got)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(2, 2)
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("new breaker not closed")
	}
	b.Failure()
	if b.State() != BreakerClosed {
		t.Error("tripped below threshold")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("did not trip at threshold")
	}
	if b.Allow() {
		t.Error("open breaker allowed an op before cooldown")
	}
	if !b.Allow() {
		t.Error("cooldown did not half-open the breaker")
	}
	if b.State() != BreakerHalfOpen {
		t.Errorf("state = %v, want half-open", b.State())
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Error("failed probe did not reopen")
	}
	b.Allow()
	b.Allow() // second rejection half-opens again
	b.Success()
	if b.State() != BreakerClosed {
		t.Error("successful probe did not close")
	}
	b.Failure()
	b.Failure()
	b.Reset()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Error("reset did not close the breaker")
	}
}

func TestClassifyTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want ErrorClass
	}{
		{&HTTPError{Op: "pull", Status: 404}, ClassDeterministic},
		{&HTTPError{Op: "pull", Status: 413}, ClassDeterministic},
		{&HTTPError{Op: "pull", Status: 429}, ClassTransient},
		{&HTTPError{Op: "pull", Status: 503}, ClassTransient},
		{io.ErrUnexpectedEOF, ClassTransient},
		{fmt.Errorf("%w: digest mismatch", ErrCorrupt), ClassTransient},
		{fmt.Errorf("%w: last error", ErrCircuitOpen), ClassTransient},
		{errors.New("hub: rejecting malformed image"), ClassDeterministic},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestDeterministicFailureNotRetried: a 404 is answered coherently by
// the registry; retrying it would be waste, so the client gives up on
// attempt 1 and the breaker stays closed.
func TestDeterministicFailureNotRetried(t *testing.T) {
	srv := NewServer(NewStore())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClientWithOptions(ts.URL, chaosOptions(5))
	_, _, err := c.Pull("nope", "missing", "latest", "")
	if err == nil {
		t.Fatal("pull of missing image succeeded")
	}
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusNotFound {
		t.Errorf("err = %v, want HTTPError 404", err)
	}
	log := c.AttemptsMatching("pull nope/missing:latest attempt")
	if len(log) != 1 || !strings.Contains(log[0], "deterministic; giving up") {
		t.Errorf("404 was retried:\n%s", strings.Join(log, "\n"))
	}
	if c.Breaker().State() != BreakerClosed {
		t.Error("deterministic failure counted against the breaker")
	}
}

// TestUploadCapEnforced: the server rejects oversized uploads with 413
// and the client treats that as deterministic.
func TestUploadCapEnforced(t *testing.T) {
	srv := NewServer(NewStore())
	srv.MaxUploadBytes = 256
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/_layers/sha256:00", bytes.NewReader(make([]byte, 300)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}

	// The negotiation fits under the cap; the layer upload does not.
	c := NewClientWithOptions(ts.URL, chaosOptions(5))
	if _, err := c.Push("coll", testImage("pepa", "latest", strings.Repeat("x", 500))); err == nil {
		t.Fatal("oversized push succeeded")
	}
	log := c.AttemptsMatching("pushlayer ")
	if len(log) != 1 || !strings.Contains(log[0], "HTTP 413 (deterministic; giving up)") {
		t.Errorf("413 layer upload was retried:\n%s", strings.Join(c.AttemptLog(), "\n"))
	}
}

// TestResponseCapEnforced: a manifest or a layer larger than the
// client's response cap is refused on the client side, without a retry.
func TestResponseCapEnforced(t *testing.T) {
	store := NewStore()
	ts := httptest.NewServer(NewServer(store).Handler())
	defer ts.Close()
	digest, err := NewClientWithOptions(ts.URL, chaosOptions(2)).Push("coll", testImage("pepa", "latest", strings.Repeat("payload ", 100)))
	if err != nil {
		t.Fatal(err)
	}
	blob, _, _ := store.Get("coll", "pepa", "latest")
	manifest, frames, err := image.LayeredFrames(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames[0]) <= len(manifest) {
		t.Fatalf("layer (%d bytes) not larger than the manifest (%d bytes)", len(frames[0]), len(manifest))
	}
	for _, tc := range []struct {
		name string
		cap  int
		op   string
	}{
		{"manifest", len(manifest) - 1, "pull coll/pepa:latest attempt"},
		{"layer", len(frames[0]) - 1, "pulllayer "},
	} {
		opts := chaosOptions(2)
		opts.MaxResponseBytes = int64(tc.cap)
		c := NewClientWithOptions(ts.URL, opts)
		if _, _, err := c.Pull("coll", "pepa", "latest", digest); err == nil {
			t.Fatalf("%s: pull above the response cap succeeded", tc.name)
		} else if !strings.Contains(err.Error(), fmt.Sprintf("%d-byte cap", tc.cap)) {
			t.Errorf("%s: err = %v, want response-cap error", tc.name, err)
		}
		if log := c.AttemptsMatching(tc.op); len(log) != 1 || !strings.Contains(log[0], "deterministic; giving up") {
			t.Errorf("%s: cap violation was retried:\n%s", tc.name, strings.Join(c.AttemptLog(), "\n"))
		}
	}
}

// TestWriteJSONContentLength: JSON responses carry an exact
// Content-Length (regression guard for the silent-encode-error fix).
func TestWriteJSONContentLength(t *testing.T) {
	srv := NewServer(NewStore())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := NewClientWithOptions(ts.URL, chaosOptions(2)).Push("coll", testImage("pepa", "latest", "v1")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/coll")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(body)) {
		t.Errorf("Content-Length = %q, body is %d bytes", cl, len(body))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
}
