package hub

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// This file is the client-side resilience layer: a retry policy with
// exponential backoff and deterministic (seeded) jitter, a consecutive-
// failure circuit breaker, and the transient-vs-deterministic error
// taxonomy that core's validation matrix reports. All jitter comes from
// internal/rng so a fixed seed reproduces the attempt log byte-for-byte
// (see docs/RESILIENCE.md).

// ErrCircuitOpen is returned (possibly wrapped) when the client's
// circuit breaker rejects an operation without attempting it.
var ErrCircuitOpen = errors.New("hub: circuit breaker open")

// ErrCorrupt marks responses whose payload failed digest or structural
// verification: the transfer (or the registry copy) is corrupt. Such
// errors are retried exactly once — a second identical corruption means
// the stored content itself is bad.
var ErrCorrupt = errors.New("hub: response corrupt")

// ErrQuarantined marks pulls answered 410 Gone because the hub's
// integrity scrubber quarantined the stored bytes. Retrying cannot
// help — the fix is a re-push of the content — so it classifies as
// deterministic.
var ErrQuarantined = errors.New("hub: content quarantined by registry")

// HTTPError is a non-200 registry response.
type HTTPError struct {
	Op     string // e.g. "pull coll/pepa:latest"
	Status int
	Msg    string // trimmed response body
	// RetryAfter carries the server's Retry-After hint on 429 responses
	// (zero when absent). The retry loop honors it as a non-counting
	// backoff: the sleep does not consume the attempt budget.
	RetryAfter time.Duration
}

func (e *HTTPError) Error() string {
	msg := e.Msg
	if msg != "" {
		msg = ": " + msg
	}
	return fmt.Sprintf("hub: %s: HTTP %d %s%s", e.Op, e.Status, http.StatusText(e.Status), msg)
}

// ErrorClass is the failure taxonomy used by the validation matrix:
// transient failures (connection errors, timeouts, 429/5xx, corrupt
// transfers, open breakers) are worth retrying on a later run; anything
// else is deterministic and will fail again identically.
type ErrorClass int

const (
	// ClassDeterministic failures reproduce on every attempt (4xx,
	// malformed images, configuration errors, panics).
	ClassDeterministic ErrorClass = iota
	// ClassTransient failures are infrastructure weather: they may pass
	// on retry.
	ClassTransient
)

// String names the class for reports.
func (c ErrorClass) String() string {
	if c == ClassTransient {
		return "transient"
	}
	return "deterministic"
}

// Classify sorts an error into the transient/deterministic taxonomy.
func Classify(err error) ErrorClass {
	switch classify(err) {
	case classTransient, classCorrupt:
		return ClassTransient
	}
	if errors.Is(err, ErrCircuitOpen) {
		return ClassTransient
	}
	return ClassDeterministic
}

// errClass is the internal retry decision for one attempt error.
type errClass int

const (
	classPermanent errClass = iota
	classTransient          // retry up to the attempt budget
	classCorrupt            // retry exactly once
)

func classify(err error) errClass {
	if err == nil {
		return classPermanent
	}
	if errors.Is(err, ErrQuarantined) {
		// The registry answered coherently: its copy is known-bad and
		// only a re-push repairs it. Deterministic, not worth retrying.
		return classPermanent
	}
	if errors.Is(err, ErrCorrupt) {
		return classCorrupt
	}
	var he *HTTPError
	if errors.As(err, &he) {
		if he.Status == http.StatusTooManyRequests || he.Status >= 500 {
			return classTransient
		}
		return classPermanent
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		return classTransient
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return classTransient
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return classTransient
	}
	return classPermanent
}

// describe renders an attempt error as a short, stable phrase for the
// attempt log: no URLs, addresses, or ports, so logs are byte-identical
// across runs against ephemeral-port servers.
func describe(err error) string {
	if errors.Is(err, ErrQuarantined) {
		return "quarantined content"
	}
	var he *HTTPError
	if errors.As(err, &he) {
		return fmt.Sprintf("HTTP %d", he.Status)
	}
	if errors.Is(err, ErrCorrupt) {
		return "corrupt response"
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "timeout"
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		return "transport error"
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return "truncated response"
	}
	return "error"
}

// RetryPolicy tunes the client's retry loop.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per operation (default 4).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// retry (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// BreakerState is the circuit breaker's visible state.
type BreakerState int

const (
	// BreakerClosed: operations flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: operations are rejected without being attempted.
	BreakerOpen
	// BreakerHalfOpen: one probe operation is allowed through.
	BreakerHalfOpen
)

// String names the state for reports.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// Breaker is a deterministic consecutive-failure circuit breaker. It
// trips open after Threshold consecutive transient failures; while open
// it rejects calls, and after Cooldown rejections it half-opens to let
// exactly one in-flight probe through — concurrent callers are rejected
// until the probe resolves. Probe success (or a deterministic failure,
// which proves the transport answered coherently) closes the breaker;
// probe failure reopens it. The breaker is counted in operations, not
// wall time, so chaos tests reproduce its trajectory exactly.
type Breaker struct {
	mu          sync.Mutex
	threshold   int
	cooldown    int
	consecutive int
	rejected    int
	// probing marks the half-open probe slot as taken; every outcome path
	// (Success, Failure, ProbeHealthy, Reset) releases it.
	probing bool
	state   BreakerState
	// onTransition observes state changes (metrics); called with mu held.
	onTransition func(from, to BreakerState)
}

// NewBreaker builds a breaker tripping after threshold consecutive
// failures and half-opening after cooldown rejected calls (defaults 5
// and 3 when non-positive).
func NewBreaker(threshold, cooldown int) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 3
	}
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// setState transitions the breaker, notifying the observer. Caller
// holds mu.
func (b *Breaker) setState(s BreakerState) {
	if b.state == s {
		return
	}
	from := b.state
	b.state = s
	if b.onTransition != nil {
		b.onTransition(from, s)
	}
}

// Allow reports whether an operation may proceed, advancing the
// open -> half-open cooldown as rejected calls accumulate. While
// half-open, exactly one caller is admitted as the probe; the rest are
// rejected until Success, Failure, or ProbeHealthy resolves it.
func (b *Breaker) Allow() bool {
	ok, _ := b.allow()
	return ok
}

// allow is Allow plus the state the decision was made in (for log wording).
func (b *Breaker) allow() (bool, BreakerState) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, BreakerClosed
	case BreakerHalfOpen:
		if b.probing {
			// The probe slot is taken: concurrent operations must not all
			// pass as "the one probe".
			return false, BreakerHalfOpen
		}
		b.probing = true
		return true, BreakerHalfOpen
	default: // open
		b.rejected++
		if b.rejected >= b.cooldown {
			b.setState(BreakerHalfOpen)
			b.probing = true
			return true, BreakerHalfOpen
		}
		return false, BreakerOpen
	}
}

// Success records a healthy round trip, resolving any in-flight probe
// and closing the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	b.probing = false
	b.setState(BreakerClosed)
}

// Failure records a transient failure, resolving any in-flight probe and
// tripping the breaker when the consecutive-failure threshold is reached
// (immediately, if half-open).
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.state == BreakerHalfOpen || b.consecutive >= b.threshold {
		b.setState(BreakerOpen)
		b.rejected = 0
	}
	b.probing = false
}

// ProbeHealthy resolves an in-flight half-open probe whose attempt
// reached the registry but failed deterministically (e.g. a 404): the
// transport answered coherently, so the probe proves the infrastructure
// healthy and the breaker closes. In every other state this is a no-op,
// preserving the rule that deterministic failures are not breaker
// events. Without this, a permanently-failing probe left the breaker
// stuck half-open forever.
func (b *Breaker) ProbeHealthy() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen && b.probing {
		b.probing = false
		b.consecutive = 0
		b.setState(BreakerClosed)
	}
}

// State returns the current breaker state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Reset force-closes the breaker and zeroes its counters.
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	b.rejected = 0
	b.probing = false
	b.setState(BreakerClosed)
}

// backoff computes the delay before the retry following attempt
// (1-based): exponential growth from BaseDelay, capped at MaxDelay,
// scaled by a deterministic jitter factor in [0.5, 1.0).
func (c *Client) backoff(pol RetryPolicy, attempt int) time.Duration {
	d := pol.BaseDelay
	for i := 1; i < attempt && d < pol.MaxDelay; i++ {
		d *= 2
	}
	if d > pol.MaxDelay {
		d = pol.MaxDelay
	}
	c.jmu.Lock()
	u := c.jitter.Float64()
	c.jmu.Unlock()
	return time.Duration(float64(d) * (0.5 + 0.5*u))
}

// logf appends one line to the client attempt log.
func (c *Client) logf(format string, args ...any) {
	c.logMu.Lock()
	c.attempts = append(c.attempts, fmt.Sprintf(format, args...))
	c.logMu.Unlock()
}

// AttemptLog returns a copy of the attempt log: one line per attempt,
// stable and byte-identical for a fixed jitter seed and fault plan.
func (c *Client) AttemptLog() []string {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	return append([]string(nil), c.attempts...)
}

// AttemptsMatching returns the attempt-log lines containing substr
// (used to attach one operation's attempts to a matrix cell).
func (c *Client) AttemptsMatching(substr string) []string {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	var out []string
	for _, line := range c.attempts {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return out
}

// ResetAttemptLog clears the attempt log.
func (c *Client) ResetAttemptLog() {
	c.logMu.Lock()
	c.attempts = nil
	c.logMu.Unlock()
}

// Breaker exposes the client's circuit breaker (state inspection and
// manual reset).
func (c *Client) Breaker() *Breaker { return c.breaker }

// do runs one logical operation through the breaker and retry loop.
// mkReq builds a fresh request per attempt (bodies cannot be replayed);
// handle consumes a 200 response. Transient failures retry with
// backoff, corrupt payloads retry once, deterministic failures return
// immediately.
func (c *Client) do(op string, mkReq func() (*http.Request, error), handle func(*http.Response) error) error {
	pol := c.Retry.withDefaults()
	kind := obs.L("op", opKind(op))
	var lastErr error
	corruptRetried := false
	// Admission-control pushback (429 + Retry-After) is honored as a
	// non-counting backoff hint: the client sleeps the advertised delay
	// without consuming its attempt budget or tripping the breaker, but
	// at most maxThrottles times so a pathological server cannot pin it.
	const maxThrottles = 4
	throttled := 0
	br := c.breaker
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		req, err := mkReq()
		if err != nil {
			// A request that cannot be built will never build: no breaker
			// event, no retry.
			c.logf("%s attempt %d/%d: bad request (deterministic; giving up)", op, attempt, pol.MaxAttempts)
			c.obs.Inc("hub_client_outcomes_total", obs.L("class", "deterministic"))
			return err
		}
		ok, st := br.allow()
		if !ok {
			reason := "breaker open"
			if st == BreakerHalfOpen {
				reason = "half-open probe in flight"
			}
			c.logf("%s attempt %d/%d: rejected (%s)", op, attempt, pol.MaxAttempts, reason)
			c.obs.Inc("hub_client_breaker_rejects_total", kind)
			// Both wrap paths keep the operation context and the
			// ErrCircuitOpen sentinel, so Classify and the validation
			// matrix see one consistent error shape.
			if lastErr != nil {
				return fmt.Errorf("%w: %s (last error: %v)", ErrCircuitOpen, op, lastErr)
			}
			return fmt.Errorf("%w: %s", ErrCircuitOpen, op)
		}
		c.obs.Inc("hub_client_attempts_total", kind)
		if attempt > 1 {
			c.obs.Inc("hub_client_retries_total", kind)
		}
		err = c.attempt(op, req, handle)
		if err == nil {
			br.Success()
			c.logf("%s attempt %d/%d: ok", op, attempt, pol.MaxAttempts)
			c.obs.Inc("hub_client_outcomes_total", obs.L("class", "ok"))
			return nil
		}
		lastErr = err
		var he *HTTPError
		if errors.As(err, &he) && he.Status == http.StatusTooManyRequests && he.RetryAfter > 0 {
			if c.throttleFailover {
				// A clustered caller has other replicas to try: surface the
				// throttle immediately instead of sleeping out the hint. The
				// registry answered coherently, so any half-open probe
				// resolves as healthy.
				br.ProbeHealthy()
				c.logf("%s attempt %d/%d: throttled, failing over (retry-after %s)", op, attempt, pol.MaxAttempts, he.RetryAfter)
				c.obs.Inc("hub_client_throttled_total", kind)
				return err
			}
			if throttled < maxThrottles {
				// The registry is shedding load and told us when to come
				// back. That is a coherent answer, not infrastructure
				// weather: resolve any half-open probe as healthy, sleep the
				// hint, and do not charge the attempt budget.
				throttled++
				br.ProbeHealthy()
				c.logf("%s attempt %d/%d: throttled, retry-after %s (not counted)", op, attempt, pol.MaxAttempts, he.RetryAfter)
				c.obs.Inc("hub_client_throttled_total", kind)
				c.obs.Add("hub_client_throttle_seconds_total", he.RetryAfter.Seconds())
				c.sleep(he.RetryAfter)
				attempt--
				continue
			}
		}
		switch classify(err) {
		case classPermanent:
			// The infrastructure answered coherently; only the request is
			// doomed. Not a breaker event in the closed state — but an
			// in-flight half-open probe is resolved (as healthy), so the
			// breaker can never be left stuck half-open.
			br.ProbeHealthy()
			c.logf("%s attempt %d/%d: %s (deterministic; giving up)", op, attempt, pol.MaxAttempts, describe(err))
			c.obs.Inc("hub_client_outcomes_total", obs.L("class", "deterministic"))
			return err
		case classCorrupt:
			br.Failure()
			c.obs.Inc("hub_client_outcomes_total", obs.L("class", "corrupt"))
			if corruptRetried {
				c.logf("%s attempt %d/%d: %s (corrupt again; giving up)", op, attempt, pol.MaxAttempts, describe(err))
				return err
			}
			corruptRetried = true
			c.logf("%s attempt %d/%d: %s (re-pulling once)", op, attempt, pol.MaxAttempts, describe(err))
		default: // transient
			br.Failure()
			c.logf("%s attempt %d/%d: %s (transient)", op, attempt, pol.MaxAttempts, describe(err))
			c.obs.Inc("hub_client_outcomes_total", obs.L("class", "transient"))
		}
		if attempt == pol.MaxAttempts {
			break
		}
		d := c.backoff(pol, attempt)
		c.logf("%s backoff %s", op, d.Round(time.Millisecond))
		c.obs.Inc("hub_client_backoff_sleeps_total")
		c.obs.Add("hub_client_backoff_seconds_total", d.Seconds())
		c.sleep(d)
	}
	return fmt.Errorf("hub: %s failed after %d attempts: %w", op, pol.MaxAttempts, lastErr)
}

// attempt runs try under a panic guard: a panicking request body or
// response handler resolves the breaker probe (as a failure) before the
// panic propagates, so supervised panics (internal/par) cannot leave the
// breaker stuck half-open.
func (c *Client) attempt(op string, req *http.Request, handle func(*http.Response) error) (err error) {
	completed := false
	defer func() {
		if !completed {
			c.breaker.Failure()
		}
	}()
	err = c.try(op, req, handle)
	completed = true
	return err
}

// opKind maps an operation string ("pull coll/pepa:latest") to its
// low-cardinality metric label ("pull").
func opKind(op string) string {
	if k, _, ok := strings.Cut(op, " "); ok {
		return k
	}
	return op
}

// try performs a single attempt: issue the (pre-built) request, surface
// non-200 statuses as HTTPError, and always drain and close the body so
// the connection can be reused.
func (c *Client) try(op string, req *http.Request, handle func(*http.Response) error) error {
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	// 206 Partial Content only arises on pull resumes that sent a Range
	// header; it is a success status for the streaming reader.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		trimmed := strings.TrimSpace(string(msg))
		if resp.StatusCode == http.StatusGone && resp.Header.Get(headerHubError) == hubErrQuarantined {
			return fmt.Errorf("%w: %s: %s", ErrQuarantined, op, trimmed)
		}
		he := &HTTPError{Op: op, Status: resp.StatusCode, Msg: trimmed}
		if resp.StatusCode == http.StatusTooManyRequests {
			if secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && secs >= 0 {
				he.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return he
	}
	return handle(resp)
}

// newJitter builds the client's seeded jitter source.
func newJitter(seed uint64) *rng.Source {
	if seed == 0 {
		seed = 1
	}
	return rng.New(seed)
}
