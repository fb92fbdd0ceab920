// Package hub implements the container registry of the paper's
// distribution model (the Singularity-Hub stand-in): an HTTP server
// organizing built images into collections with tags and content digests,
// plus a client with digest-verified pull — reproducing Fig 6's
// "collection page + clone of each container" workflow.
//
// Images move in one protocol: by content-addressed layer (see
// layers.go). A push negotiates which layers the registry is missing,
// uploads only those and commits the image's manifest; a pull fetches the
// manifest and only the layers the client has not cached. Every entry a
// store holds is in the layered (SCIF2) encoding.
//
// The client is resilient by construction: every operation runs through
// a retry loop with exponential backoff, deterministic seeded jitter,
// and a circuit breaker (see resilience.go and docs/RESILIENCE.md);
// response sizes are capped; and corrupt transfers are detected by
// digest and re-pulled once. The server can be wrapped with a
// faultinject.Plan to chaos-test all of the above deterministically.
package hub

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Entry describes one stored image version.
type Entry struct {
	Collection string `json:"collection"`
	Container  string `json:"container"`
	Tag        string `json:"tag"`
	Digest     string `json:"digest"`
	Size       int    `json:"size"`
	BuildHost  string `json:"buildHost,omitempty"`
	// Layers counts the content-addressed layers of the stored (SCIF2)
	// entry.
	Layers int `json:"layers,omitempty"`
	// Quarantined marks content whose stored bytes failed digest
	// verification (scrubber or recovery); it is served as 410 Gone
	// until a re-push repairs it.
	Quarantined bool `json:"quarantined,omitempty"`
}

// Store is the in-memory registry state, safe for concurrent use. A
// store opened with OpenDurable additionally journals every mutation to
// a write-ahead log before acknowledging it (see persist.go, wal.go).
type Store struct {
	mu          sync.RWMutex
	blobs       map[string][]byte // key: coll/name:tag
	digest      map[string]string
	meta        map[string]Entry
	quarantined map[string]string // key -> quarantine reason
	// layers is the content-addressed layer index: encoded layer frames
	// keyed by digest, learned from installed layered blobs and from
	// PutLayer staging. A cache, not durable state (see layers.go).
	layers map[string][]byte
	// hints holds journaled hinted-handoff records, keyed by
	// (target, ref) — writes owed to down peers (see hints.go).
	hints map[string]Hint

	// pmu serializes mutations so the journal order matches the order
	// the in-memory maps were updated in; nil wal means in-memory only.
	pmu          sync.Mutex
	dir          string
	wal          *wal
	compactEvery int
}

// NewStore creates an empty registry store.
func NewStore() *Store {
	return &Store{
		blobs:       map[string][]byte{},
		digest:      map[string]string{},
		meta:        map[string]Entry{},
		quarantined: map[string]string{},
		layers:      map[string][]byte{},
		hints:       map[string]Hint{},
	}
}

func key(coll, name, tag string) string { return coll + "/" + name + ":" + tag }

// storedForm decodes an image blob and returns the bytes a store keeps
// for it, the layered (SCIF2) encoding, with the decoded image and its
// digest. A monolithic (SCIF1) blob is re-encoded as its one-layer form,
// which has the same digest. Put, journal replay and snapshot load all
// go through it, so every entry a store holds is SCIF2.
func storedForm(blob []byte) ([]byte, *image.Image, string, error) {
	img, err := image.Unmarshal(blob)
	if err != nil {
		return nil, nil, "", fmt.Errorf("hub: rejecting malformed image: %w", err)
	}
	d, err := img.Digest()
	if err != nil {
		return nil, nil, "", err
	}
	if !image.IsLayered(blob) {
		if blob, err = img.MarshalLayered(); err != nil {
			return nil, nil, "", err
		}
	}
	return blob, img, d, nil
}

// Put stores an image blob, computing and recording its digest; a SCIF1
// blob is stored in its one-layer SCIF2 form. On a durable store the
// blob file and journal record are fsynced before the in-memory state
// changes. Re-pushing bytes whose digest matches the already-stored
// (healthy) entry is a no-op: no copy, no blob write, no journal record.
// Re-pushing to a quarantined entry repairs it.
func (s *Store) Put(coll, name, tag string, blob []byte) (string, error) {
	stored, img, d, err := storedForm(blob)
	if err != nil {
		return "", err
	}
	k := key(coll, name, tag)
	s.pmu.Lock()
	defer s.pmu.Unlock()
	s.mu.RLock()
	_, inQuarantine := s.quarantined[k]
	identical := s.digest[k] == d && !inQuarantine
	s.mu.RUnlock()
	if identical {
		// Idempotent re-push: the stored entry already holds exactly
		// these bytes and is healthy.
		return d, nil
	}
	if image.IsLayered(blob) {
		// The caller keeps its slice; the store owns an immutable copy.
		stored = bytes.Clone(blob)
	}
	e := Entry{
		Collection: coll, Container: name, Tag: tag,
		Digest: d, Size: len(stored), BuildHost: img.Meta.BuildHost,
		Layers: len(img.Layers),
	}
	if s.wal != nil {
		pe := persistedEntry{Entry: e, Blob: blobFileName(d)}
		// Repairing quarantined content must overwrite the on-disk blob:
		// its content-addressed file may be the corrupt copy.
		if err := s.persistPut(pe, stored, inQuarantine); err != nil {
			return "", err
		}
	}
	s.installEntry(k, e, stored)
	if s.wal != nil && s.compactEvery > 0 && s.wal.records >= s.compactEvery {
		if err := s.compactLocked(); err != nil {
			return "", err
		}
	}
	return d, nil
}

// Delete removes an entry, journaling the removal on durable stores.
// It reports whether the entry existed.
func (s *Store) Delete(coll, name, tag string) (bool, error) {
	k := key(coll, name, tag)
	s.pmu.Lock()
	defer s.pmu.Unlock()
	s.mu.RLock()
	e, ok := s.meta[k]
	s.mu.RUnlock()
	if !ok {
		return false, nil
	}
	if s.wal != nil {
		pe := persistedEntry{Entry: e}
		if err := s.wal.append(walDelete, pe); err != nil {
			return false, err
		}
	}
	s.removeEntry(k)
	return true, nil
}

// Get retrieves an image blob and its digest. Quarantined entries are
// not served.
func (s *Store) Get(coll, name, tag string) ([]byte, string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	k := key(coll, name, tag)
	blob, ok := s.blobs[k]
	if !ok {
		return nil, "", false
	}
	if _, bad := s.quarantined[k]; bad {
		return nil, "", false
	}
	return append([]byte(nil), blob...), s.digest[k], true
}

// view returns the stored blob without copying, plus its entry and
// quarantine reason. The slice is safe to read concurrently: Put
// replaces blobs wholesale and never mutates them in place.
func (s *Store) view(coll, name, tag string) (blob []byte, e Entry, reason string, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	k := key(coll, name, tag)
	e, ok = s.meta[k]
	if !ok {
		return nil, Entry{}, "", false
	}
	return s.blobs[k], e, s.quarantined[k], true
}

// QuarantineReason reports whether the entry is quarantined and why.
func (s *Store) QuarantineReason(coll, name, tag string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reason, ok := s.quarantined[key(coll, name, tag)]
	return reason, ok
}

// List returns the entries of one collection, sorted by container then tag.
func (s *Store) List(coll string) []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Entry
	for _, e := range s.meta {
		if e.Collection == coll {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Container != out[j].Container {
			return out[i].Container < out[j].Container
		}
		return out[i].Tag < out[j].Tag
	})
	return out
}

// Collections lists collection names, sorted.
func (s *Store) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := map[string]bool{}
	for _, e := range s.meta {
		set[e.Collection] = true
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Server wraps a Store with the HTTP API.
type Server struct {
	Store *Store
	// PeerName is this server's stable cluster peer name, reported by
	// GET /v1/_cluster/status (empty for a standalone hub).
	PeerName string
	// MaxUploadBytes caps PUT/POST request bodies (default 64 MiB);
	// oversized uploads are rejected with 413.
	MaxUploadBytes int64
	// ChunkSize is the digest-framing granularity for manifest and layer
	// GETs (default 64 KiB): responses advertise a per-chunk SHA-256 list
	// so clients can verify and resume partial transfers (see stream.go).
	ChunkSize int
	mux       *http.ServeMux
	handler   http.Handler
	ln        net.Listener
	srv       *http.Server
	builder   Builder // set by EnableAutoBuild
	// obs is the optional server metrics registry (EnableMetrics).
	obs *obs.Registry
	// inflight counts requests currently being served; Shutdown reports
	// it as the drain backlog and the gauge hub_server_inflight_requests
	// tracks it when metrics are enabled.
	inflight atomic.Int64
	// chunkMu guards chunkCache, the chunk digest memo. It is keyed by
	// the SHA-256 of the bytes it describes, so entries never go stale.
	chunkMu    sync.Mutex
	chunkCache map[string][]string
	// scrubber is the optional background integrity scrubber.
	scrubber *Scrubber
}

// NewServer creates a server over the store.
func NewServer(store *Store) *Server {
	s := &Server{
		Store: store, MaxUploadBytes: 64 << 20, ChunkSize: DefaultChunkSize,
		mux: http.NewServeMux(), chunkCache: map[string][]string{},
	}
	s.handler = s.mux
	s.mux.HandleFunc("/v1/", s.handle)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// EnableFaults wraps the server's handler with a deterministic fault
// plan (chaos testing). The plan is consulted on behalf of the server's
// PeerName, so a spec with %peer clauses can crash exactly this member
// of a cluster sharing one spec; set PeerName before calling. Must be
// called before Listen/Handler use.
func (s *Server) EnableFaults(plan *faultinject.Plan) {
	s.handler = plan.MiddlewareFor(s.PeerName, s.mux)
}

// Handler returns the HTTP handler (for tests via httptest).
func (s *Server) Handler() http.Handler { return s.track(s.handler) }

// track wraps a handler with in-flight request accounting. The counter
// is shared across wrappers, so Handler and Listen agree on the count.
func (s *Server) track(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.obs.Set("hub_server_inflight_requests", float64(s.inflight.Add(1)))
		defer func() {
			s.obs.Set("hub_server_inflight_requests", float64(s.inflight.Add(-1)))
		}()
		inner.ServeHTTP(w, r)
	})
}

// Listen starts serving on addr ("127.0.0.1:0" for an ephemeral port) and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.track(s.handler)}
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Shutdown stops the server gracefully: the listener closes immediately
// (no new connections), in-flight requests get until ctx expires to
// finish, and only then are the stragglers aborted. The outcome is
// recorded in hub_server_shutdowns_total{outcome="drained"|"aborted"};
// an aborted drain returns ctx's error after force-closing.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.scrubber != nil {
		s.scrubber.Stop()
		s.scrubber = nil
	}
	if s.srv == nil {
		return nil
	}
	if err := s.srv.Shutdown(ctx); err != nil {
		s.obs.Inc("hub_server_shutdowns_total", obs.L("outcome", "aborted"))
		s.srv.Close()
		return err
	}
	s.obs.Inc("hub_server_shutdowns_total", obs.L("outcome", "drained"))
	return nil
}

// Close stops the server abortively, cutting in-flight requests. Prefer
// Shutdown; Close remains as the immediate-stop fallback.
func (s *Server) Close() error {
	if s.scrubber != nil {
		s.scrubber.Stop()
		s.scrubber = nil
	}
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

// handle routes /v1/{collection}[/{container}/{tag}[/manifest]], the
// layer-transfer endpoints under /v1/_layers/ (see layers.go) and the
// cluster endpoints under /v1/_cluster/ (see hints.go).
func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.Trim(strings.TrimPrefix(r.URL.Path, "/v1/"), "/"), "/")
	switch {
	case len(parts) == 2 && parts[0] == "_layers" && parts[1] == "missing":
		s.handleLayerMissing(w, r)
		return
	case len(parts) == 2 && parts[0] == "_layers":
		s.handleLayer(w, r, parts[1])
		return
	case len(parts) >= 2 && parts[0] == "_cluster":
		s.handleCluster(w, r, parts)
		return
	case len(parts) == 4 && parts[3] == "manifest":
		s.handleManifest(w, r, parts[0], parts[1], parts[2])
		return
	}
	switch {
	case len(parts) == 1 && parts[0] == "":
		// GET /v1/ — list collections.
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, s.Store.Collections())
	case len(parts) == 1:
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		entries := s.Store.List(parts[0])
		if len(entries) == 0 {
			http.Error(w, "collection not found", http.StatusNotFound)
			return
		}
		writeJSON(w, entries)
	case len(parts) == 3:
		// Images move only by manifest and layer (layers.go); the bare
		// image path just deletes.
		if r.Method != http.MethodDelete {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		coll, name, tag := parts[0], parts[1], parts[2]
		existed, err := s.Store.Delete(coll, name, tag)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if !existed {
			http.Error(w, "image not found", http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]string{"deleted": coll + "/" + name + ":" + tag})
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// readBody reads a size-capped request body, writing 413 (too large) or
// 400 (read failure) itself when it fails.
func readBody(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	blob, err := io.ReadAll(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxBytes), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return nil, err
	}
	return blob, nil
}

// writeJSON marshals v up front so encode failures become a clean 500
// instead of a silently truncated 200, and Content-Length is exact.
func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	data = append(data, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// Client talks to a hub server. The zero value is not usable; construct
// with NewClient or NewClientWithOptions. All operations retry
// transient failures with backoff and run through a circuit breaker.
type Client struct {
	BaseURL string // e.g. "http://127.0.0.1:4321"
	HTTP    *http.Client
	// Retry tunes the retry loop (zero fields use defaults).
	Retry RetryPolicy
	// MaxResponseBytes caps how much of any response body is read
	// (default 64 MiB).
	MaxResponseBytes int64

	// breakers holds one circuit breaker per destination host, created
	// lazily as requests are routed (see breakerFor): a failing peer
	// trips only its own breaker, so a client whose BaseURL moves
	// between hub replicas never rejects requests to healthy ones.
	bmu            sync.Mutex
	breakers       map[string]*Breaker
	brThreshold    int
	brCooldown     int
	onBrTransition func(from, to BreakerState)
	// throttleFailover makes 429+Retry-After responses return
	// immediately (as *HTTPError) instead of sleeping out the hint, so a
	// clustered caller can try the next replica at once. Single-hub
	// clients leave it off and keep the uncounted-pass behavior.
	throttleFailover bool
	// layerCache holds layers pulled or pushed by this client so layered
	// transfers skip layers already on hand (see layers.go).
	layerCache *LayerCache
	jmu        sync.Mutex
	jitter     *rng.Source
	logMu      sync.Mutex
	attempts   []string
	sleep      func(time.Duration)
	// obs is the optional metrics registry; nil (the default) disables
	// instrumentation at zero cost and cannot perturb attempt logs.
	obs *obs.Registry
}

// ClientOptions tunes NewClientWithOptions. Zero fields use defaults.
type ClientOptions struct {
	Timeout          time.Duration // HTTP client timeout (default 30s)
	Retry            RetryPolicy
	MaxResponseBytes int64
	BreakerThreshold int    // consecutive failures to trip (default 5)
	BreakerCooldown  int    // rejections before a half-open probe (default 3)
	JitterSeed       uint64 // backoff jitter seed (default 1)
	// Transport overrides the HTTP transport (e.g. a faultinject plan's
	// Transport for chaos tests).
	Transport http.RoundTripper
	// Sleep overrides the inter-retry sleep (tests use a no-op).
	Sleep func(time.Duration)
	// Obs receives client metrics (attempts, retries, backoff, breaker
	// transitions, layers and bytes moved). Nil disables instrumentation.
	Obs *obs.Registry
	// LayerCache shares a layer cache between clients (nil creates a
	// fresh per-client cache).
	LayerCache *LayerCache
	// ThrottleFailover makes admission-control pushback (429 +
	// Retry-After) surface immediately as *HTTPError instead of being
	// slept out, so a clustered caller can fail over to another replica
	// at once (see internal/hub/cluster). Leave unset for single-hub
	// clients: they keep the capped uncounted-pass backoff.
	ThrottleFailover bool
	// PeerName labels this client's breaker metrics with {peer=...} —
	// stable cluster peer names, never addresses. Empty emits the
	// legacy unlabeled series.
	PeerName string
}

// NewClient creates a client for the given base URL with default
// resilience settings: 30s request timeout, 4 attempts with exponential
// backoff, 64 MiB response cap, breaker tripping after 5 consecutive
// failures.
func NewClient(baseURL string) *Client {
	return NewClientWithOptions(baseURL, ClientOptions{})
}

// NewClientWithOptions creates a client with explicit resilience knobs.
func NewClientWithOptions(baseURL string, opts ClientOptions) *Client {
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	if opts.MaxResponseBytes <= 0 {
		opts.MaxResponseBytes = 64 << 20
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	if opts.LayerCache == nil {
		opts.LayerCache = NewLayerCache()
	}
	c := &Client{
		BaseURL:          strings.TrimRight(baseURL, "/"),
		HTTP:             &http.Client{Timeout: opts.Timeout, Transport: opts.Transport},
		Retry:            opts.Retry,
		MaxResponseBytes: opts.MaxResponseBytes,
		breakers:         map[string]*Breaker{},
		brThreshold:      opts.BreakerThreshold,
		brCooldown:       opts.BreakerCooldown,
		throttleFailover: opts.ThrottleFailover,
		layerCache:       opts.LayerCache,
		jitter:           newJitter(opts.JitterSeed),
		sleep:            opts.Sleep,
		obs:              opts.Obs,
	}
	if reg := opts.Obs; reg != nil {
		// The transition hook is shared by every per-host breaker. With a
		// PeerName the series carries a stable {peer} label; without one
		// it is the legacy unlabeled gauge (single-host clients only ever
		// create one breaker, so the aggregate is exact).
		var labels []obs.Label
		if opts.PeerName != "" {
			labels = []obs.Label{obs.L("peer", opts.PeerName)}
		}
		reg.Set("hub_breaker_state", float64(BreakerClosed), labels...)
		c.onBrTransition = func(from, to BreakerState) {
			reg.Inc("hub_breaker_transitions_total",
				append([]obs.Label{obs.L("from", from.String()), obs.L("to", to.String())}, labels...)...)
			reg.Set("hub_breaker_state", float64(to), labels...)
		}
	}
	return c
}

// List fetches the entries of a collection.
func (c *Client) List(coll string) ([]Entry, error) {
	var entries []Entry
	err := c.do("list "+coll, func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/%s", c.BaseURL, coll), nil)
	}, func(resp *http.Response) error {
		if err := jsonDecode(io.LimitReader(resp.Body, c.MaxResponseBytes), &entries); err != nil {
			return fmt.Errorf("%w: decoding list response: %v", ErrCorrupt, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// Collections fetches the collection names.
func (c *Client) Collections() ([]string, error) {
	var out []string
	err := c.do("collections", func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, c.BaseURL+"/v1/", nil)
	}, func(resp *http.Response) error {
		if err := jsonDecode(io.LimitReader(resp.Body, c.MaxResponseBytes), &out); err != nil {
			return fmt.Errorf("%w: decoding collections response: %v", ErrCorrupt, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
