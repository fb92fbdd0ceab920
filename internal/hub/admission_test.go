package hub

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock is a manually-advanced time source for the token bucket.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (fc *fakeClock) now() time.Time {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.t
}

func (fc *fakeClock) advance(d time.Duration) {
	fc.mu.Lock()
	fc.t = fc.t.Add(d)
	fc.mu.Unlock()
}

func TestTokenBucket(t *testing.T) {
	fc := &fakeClock{t: time.Unix(0, 0)}
	b := newTokenBucket(1, 2, fc.now) // 1 token/s, burst 2

	for i := 0; i < 2; i++ {
		if ok, _ := b.take(); !ok {
			t.Fatalf("take %d within burst refused", i+1)
		}
	}
	ok, wait := b.take()
	if ok {
		t.Fatal("empty bucket granted a token")
	}
	if wait != time.Second {
		t.Errorf("wait = %s, want 1s for a full-token deficit", wait)
	}
	fc.advance(500 * time.Millisecond)
	if ok, wait := b.take(); ok || wait != 500*time.Millisecond {
		t.Errorf("after 0.5s: take = (%v, %s), want refused with 0.5s wait", ok, wait)
	}
	fc.advance(500 * time.Millisecond)
	if ok, _ := b.take(); !ok {
		t.Error("token not refilled after a full second")
	}
	// Idle time never accumulates beyond the burst.
	fc.advance(time.Hour)
	granted := 0
	for {
		ok, _ := b.take()
		if !ok {
			break
		}
		granted++
	}
	if granted != 2 {
		t.Errorf("burst after long idle = %d tokens, want 2", granted)
	}
}

// TestAdmissionRateLimitSheds: with the bucket drained, requests are
// answered 429 with a whole-seconds Retry-After hint; /healthz stays
// exempt so an overloaded hub remains observable.
func TestAdmissionRateLimitSheds(t *testing.T) {
	store := NewStore()
	if _, err := store.Put("c", "app", "v1", mustBlob(t, testImage("app", "v1", "x"))); err != nil {
		t.Fatal(err)
	}
	fc := &fakeClock{t: time.Unix(0, 0)}
	reg := obs.NewRegistry()
	srv := NewServer(store)
	srv.EnableAdmission(AdmissionOptions{
		MaxInflightReads:  -1,
		MaxInflightWrites: -1,
		RatePerSec:        1,
		Burst:             1,
		Now:               fc.now,
		Obs:               reg,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ok, err := http.Get(ts.URL + "/v1/c/app/v1/manifest")
	if err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("first request = %d, want 200", ok.StatusCode)
	}

	shed, err := http.Get(ts.URL + "/v1/c/app/v1/manifest")
	if err != nil {
		t.Fatal(err)
	}
	defer shed.Body.Close()
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained bucket = %d, want 429", shed.StatusCode)
	}
	secs, err := strconv.Atoi(shed.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive whole-seconds hint", shed.Header.Get("Retry-After"))
	}
	var body strings.Builder
	buf := make([]byte, 256)
	for {
		n, rerr := shed.Body.Read(buf)
		body.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	if !strings.Contains(body.String(), "hub overloaded (rate limit)") {
		t.Errorf("shed body = %q", body.String())
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz shed with the bucket drained: %d", hz.StatusCode)
	}

	if got := reg.Counter("hub_admission_rejections_total", obs.L("class", "read"), obs.L("reason", "rate")); got != 1 {
		t.Errorf("rejections{read,rate} = %v, want 1", got)
	}
	if got := reg.Counter("hub_admission_admitted_total", obs.L("class", "read")); got != 1 {
		t.Errorf("admitted{read} = %v, want 1", got)
	}
}

// TestAdmissionConcurrencyGateSheds: with the single read slot occupied
// by a blocked request, the next read is shed with 429; writes use a
// separate gate and still pass.
func TestAdmissionConcurrencyGateSheds(t *testing.T) {
	store := NewStore()
	if _, err := store.Put("c", "app", "v1", mustBlob(t, testImage("app", "v1", "x"))); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	})
	reg := obs.NewRegistry()
	srv.EnableAdmission(AdmissionOptions{MaxInflightReads: 1, MaxInflightWrites: 1, Obs: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/slow")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // the lone read slot is now held

	shed, err := http.Get(ts.URL + "/v1/c/app/v1/manifest")
	if err != nil {
		t.Fatal(err)
	}
	shed.Body.Close()
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Errorf("second concurrent read = %d, want 429", shed.StatusCode)
	}

	// Writes ride a separate gate.
	wresp, err := http.Post(ts.URL+"/v1/_layers/missing", "application/json", strings.NewReader(`{"digests":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		t.Errorf("write while reads saturated = %d, want 200", wresp.StatusCode)
	}

	close(release)
	<-done
	if got := reg.Counter("hub_admission_rejections_total", obs.L("class", "read"), obs.L("reason", "concurrency")); got != 1 {
		t.Errorf("rejections{read,concurrency} = %v, want 1", got)
	}

	// With the slot free again, reads flow.
	after, err := http.Get(ts.URL + "/v1/c/app/v1/manifest")
	if err != nil {
		t.Fatal(err)
	}
	after.Body.Close()
	if after.StatusCode != http.StatusOK {
		t.Errorf("read after release = %d, want 200", after.StatusCode)
	}
}

// throttlingHandler shunts the first n requests to 429 + Retry-After,
// then delegates.
func throttlingHandler(n int, retryAfter string, next http.Handler) http.Handler {
	var mu sync.Mutex
	served := 0
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		throttle := served < n
		served++
		mu.Unlock()
		if throttle {
			w.Header().Set("Retry-After", retryAfter)
			http.Error(w, "hub overloaded (rate limit); retry after "+retryAfter+"s", http.StatusTooManyRequests)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// TestClientHonorsRetryAfter (tentpole): 429 + Retry-After is a backoff
// hint, not a failure — the client sleeps the advertised delay without
// consuming its attempt budget or touching the breaker.
func TestClientHonorsRetryAfter(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	img := testImage("pepa", "latest", "throttled-payload")
	digest, err := store.Put("chaos", "pepa", "latest", mustBlob(t, img))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(throttlingHandler(2, "2", srv.Handler()))
	defer ts.Close()

	var slept []time.Duration
	var sleptMu sync.Mutex
	opts := chaosOptions(2) // budget of 2 would be blown by counted throttles
	opts.Sleep = func(d time.Duration) {
		sleptMu.Lock()
		slept = append(slept, d)
		sleptMu.Unlock()
	}
	reg := obs.NewRegistry()
	opts.Obs = reg
	c := NewClientWithOptions(ts.URL, opts)

	_, gotDigest, err := c.Pull("chaos", "pepa", "latest", digest)
	if err != nil {
		t.Fatalf("throttled pull failed: %v", err)
	}
	if gotDigest != digest {
		t.Errorf("digest = %s, want %s", gotDigest, digest)
	}

	log := strings.Join(c.AttemptLog(), "\n")
	throttleLines := c.AttemptsMatching("throttled, retry-after 2s (not counted)")
	if len(throttleLines) != 2 {
		t.Errorf("throttle lines = %d, want 2:\n%s", len(throttleLines), log)
	}
	// The budget was not consumed: the winning attempt is still number 1.
	if !strings.Contains(log, "attempt 1/2: ok") {
		t.Errorf("throttles consumed the attempt budget:\n%s", log)
	}
	sleptMu.Lock()
	defer sleptMu.Unlock()
	twos := 0
	for _, d := range slept {
		if d == 2*time.Second {
			twos++
		}
	}
	if twos != 2 {
		t.Errorf("slept %v, want two 2s throttle waits", slept)
	}
	if c.Breaker().State() != BreakerClosed {
		t.Error("throttling tripped the breaker")
	}
	if got := reg.Counter("hub_client_throttled_total", obs.L("op", "pull")); got != 2 {
		t.Errorf("hub_client_throttled_total = %v, want 2", got)
	}
	if got := reg.Counter("hub_client_throttle_seconds_total"); got != 4 {
		t.Errorf("hub_client_throttle_seconds_total = %v, want 4", got)
	}
}

// TestClientThrottleCap: a server that sheds forever cannot pin the
// client — after maxThrottles uncounted passes the 429s consume the
// normal transient budget and the operation fails.
func TestClientThrottleCap(t *testing.T) {
	ts := httptest.NewServer(throttlingHandler(1<<30, "1", http.NotFoundHandler()))
	defer ts.Close()
	c := NewClientWithOptions(ts.URL, chaosOptions(2))
	_, err := c.List("chaos")
	if err == nil {
		t.Fatal("list against a permanently-shedding hub succeeded")
	}
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusTooManyRequests {
		t.Errorf("err = %v, want HTTPError 429", err)
	}
	uncounted := c.AttemptsMatching("(not counted)")
	if len(uncounted) != 4 { // maxThrottles
		t.Errorf("uncounted throttles = %d, want 4:\n%s", len(uncounted), strings.Join(c.AttemptLog(), "\n"))
	}
	counted := c.AttemptsMatching("HTTP 429 (transient)")
	if len(counted) != 2 { // the full attempt budget, once the cap is hit
		t.Errorf("counted 429s = %d, want 2:\n%s", len(counted), strings.Join(c.AttemptLog(), "\n"))
	}
}

// TestThrottleFailoverReturns429Immediately: with ThrottleFailover set,
// a 429 + Retry-After surfaces as an *HTTPError without sleeping, so a
// clustered caller can try the next replica at once.
func TestThrottleFailoverReturns429Immediately(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		http.Error(w, "shed", http.StatusTooManyRequests)
	}))
	defer ts.Close()

	var slept []time.Duration
	opts := chaosOptions(4)
	opts.ThrottleFailover = true
	opts.Sleep = func(d time.Duration) { slept = append(slept, d) }
	c := NewClientWithOptions(ts.URL, opts)

	_, _, err := c.Pull("coll", "pepa", "latest", "")
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want HTTP 429", err)
	}
	if he.RetryAfter != 3*time.Second {
		t.Errorf("RetryAfter = %v, want 3s", he.RetryAfter)
	}
	if len(slept) != 0 {
		t.Errorf("client slept %v; throttle failover must not sleep", slept)
	}
	var found bool
	for _, line := range c.AttemptLog() {
		if strings.Contains(line, "throttled, failing over") {
			found = true
		}
	}
	if !found {
		t.Errorf("attempt log missing failover line:\n%s", strings.Join(c.AttemptLog(), "\n"))
	}
}

// TestAdmissionDefaults: zero options resolve to documented defaults.
func TestAdmissionDefaults(t *testing.T) {
	o := AdmissionOptions{}.withDefaults()
	if o.MaxInflightReads != 256 || o.MaxInflightWrites != 64 {
		t.Errorf("inflight defaults = %d/%d, want 256/64", o.MaxInflightReads, o.MaxInflightWrites)
	}
	if o.RetryAfter != time.Second {
		t.Errorf("RetryAfter default = %s, want 1s", o.RetryAfter)
	}
	if o.Now == nil {
		t.Error("Now default is nil")
	}
	r := AdmissionOptions{RatePerSec: 10}.withDefaults()
	if r.Burst != 20 {
		t.Errorf("Burst default = %v, want 2*rate", r.Burst)
	}
	low := AdmissionOptions{RatePerSec: 0.25}.withDefaults()
	if low.Burst < 1 {
		t.Errorf("Burst = %v, want at least one token of headroom", low.Burst)
	}
}
