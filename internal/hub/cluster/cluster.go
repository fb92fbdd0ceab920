// Package cluster turns N independent hub replicas into one replicated,
// self-healing registry: blobs and layers are placed on R of the peers
// by rendezvous hashing of their content digests, writes fan out to all
// owners and degrade to journaled hinted handoff when an owner is down,
// reads fail over between owners and repair replicas found missing or
// quarantined, and peer rejoin streams back only the hinted or missing
// layers (layer negotiation + resumable chunked pulls, PRs 6 and 8).
// Everything is deterministic under the faultinject harness: peer
// probing order, placement, and the decision log all derive from peer
// names and content digests, never from addresses, ports, or map order.
package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/hub"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Peer names one cluster member: a stable name (used for placement,
// logs, and metrics) and the base URL its hub listens on.
type Peer struct {
	Name string
	URL  string
}

// ParsePeers parses a "-peers" flag value: comma-separated name=url
// pairs, e.g. "a=http://127.0.0.1:7001,b=http://127.0.0.1:7002".
func ParsePeers(spec string) ([]Peer, error) {
	var peers []Peer
	seen := map[string]bool{}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, url, ok := strings.Cut(clause, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("cluster: bad peer %q (want name=url)", clause)
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate peer name %q", name)
		}
		seen[name] = true
		peers = append(peers, Peer{Name: name, URL: url})
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list %q", spec)
	}
	return peers, nil
}

// Options configures New. Zero fields use defaults.
type Options struct {
	// Peers is the static membership list (at least one).
	Peers []Peer
	// Replication is R, the number of owners per content key (default 2,
	// capped at the peer count).
	Replication int
	// Seed drives the probe-loop jitter (default 1).
	Seed uint64
	// Obs receives hub_cluster_* metrics and the per-peer client series.
	Obs *obs.Registry
	// Client is the base resilience configuration for the per-peer hub
	// clients. PeerName, ThrottleFailover, LayerCache, and Obs are set by
	// the cluster; everything else passes through.
	Client hub.ClientOptions
	// TransportFor, when set, supplies each peer client's HTTP transport
	// (e.g. faultinject.TransportFor for client-side chaos). Overrides
	// Client.Transport.
	TransportFor func(peerName string) http.RoundTripper
}

// peer is one member plus its routing state.
type peer struct {
	name   string
	url    string
	client *hub.Client
	mu     sync.Mutex
	up     bool
}

func (p *peer) isUp() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.up
}

// Cluster is a replicated-hub client: it routes pushes and pulls across
// the peer set with failover, hinted handoff, read repair, and explicit
// hint-delivery / rebalance drives. Its membership is the static peer
// list it was built over: a new membership is a new Cluster, whose
// RebalanceOnce moves content onto the owners that list gives. Safe for
// concurrent use; note that the decision log is byte-stable only for
// serial operation sequences (which is what the chaos tests run).
type Cluster struct {
	peers  []*peer  // configured order
	names  []string // the peers' names, in the same order
	r      int
	obs    *obs.Registry
	cache  *hub.LayerCache
	opts   Options
	jitter *rng.Source

	logMu sync.Mutex
	log   []string

	probeStop chan struct{}
	probeDone chan struct{}
}

// New builds a cluster client over the peer list. Peers start optimistic
// (up) until a probe or a failed operation marks them down.
func New(opts Options) (*Cluster, error) {
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers configured")
	}
	r := opts.Replication
	if r <= 0 {
		r = 2
	}
	if r > len(opts.Peers) {
		r = len(opts.Peers)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	cache := opts.Client.LayerCache
	if cache == nil {
		cache = hub.NewLayerCache()
	}
	cl := &Cluster{r: r, obs: opts.Obs, cache: cache, opts: opts, jitter: rng.New(seed)}
	seen := map[string]bool{}
	for _, p := range opts.Peers {
		if p.Name == "" || p.URL == "" {
			return nil, fmt.Errorf("cluster: peer needs both name and url (got %+v)", p)
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("cluster: duplicate peer name %q", p.Name)
		}
		seen[p.Name] = true
		cl.peers = append(cl.peers, cl.newPeer(p))
		cl.names = append(cl.names, p.Name)
	}
	return cl, nil
}

// newPeer builds one member's routing state and resilient client.
func (cl *Cluster) newPeer(p Peer) *peer {
	copts := cl.opts.Client
	copts.PeerName = p.Name
	copts.ThrottleFailover = true // a throttled replica is a failover, not a wait
	copts.LayerCache = cl.cache   // cross-peer layer dedupe
	copts.Obs = cl.obs
	if cl.opts.TransportFor != nil {
		copts.Transport = cl.opts.TransportFor(p.Name)
	}
	cl.obs.Set("hub_cluster_peer_up", 1, obs.L("peer", p.Name))
	return &peer{name: p.Name, url: p.URL, client: hub.NewClientWithOptions(p.URL, copts), up: true}
}

// Replication returns the effective replication factor R.
func (cl *Cluster) Replication() int { return cl.r }

// PeerNames returns the member names in configured order.
func (cl *Cluster) PeerNames() []string { return append([]string(nil), cl.names...) }

// PeerClient exposes the resilient hub client bound to one peer (nil for
// an unknown name) — the escape hatch tests and the CLI use for direct
// per-replica operations.
func (cl *Cluster) PeerClient(name string) *hub.Client {
	if p := cl.peer(name); p != nil {
		return p.client
	}
	return nil
}

func (cl *Cluster) peer(name string) *peer {
	for _, p := range cl.peers {
		if p.name == name {
			return p
		}
	}
	return nil
}

// setUp flips one peer's health state, maintaining the per-peer gauge
// and transition counter.
func (cl *Cluster) setUp(p *peer, up bool, why string) {
	p.mu.Lock()
	changed := p.up != up
	p.up = up
	p.mu.Unlock()
	if !changed {
		return
	}
	v := 0.0
	state := "down"
	if up {
		v, state = 1.0, "up"
	}
	cl.obs.Set("hub_cluster_peer_up", v, obs.L("peer", p.name))
	cl.obs.Inc("hub_cluster_peer_transitions_total", obs.L("peer", p.name), obs.L("to", state))
	cl.logf("peer %s marked %s (%s)", p.name, state, why)
}

// rank returns the full rendezvous ordering of the members for key.
func (cl *Cluster) rank(key string) []string {
	return Rank(cl.names, key)
}

// owners returns the R owners for key.
func (cl *Cluster) owners(key string) []string {
	ranked := cl.rank(key)
	if cl.r < len(ranked) {
		return ranked[:cl.r]
	}
	return ranked
}

// PeerStatus is one member's view in a Status report.
type PeerStatus struct {
	Peer Peer
	Up   bool
	Node hub.NodeStatus // zero when the peer is unreachable
	Err  string         // probe error class ("" when healthy)
}

// ProbeOnce checks every member's health in configured order (one GET
// /v1/_cluster/status per peer), updates the up/down state and per-peer
// gauges, and returns the statuses. Deterministic for a fixed fault
// schedule: the probe order is the configured peer order.
func (cl *Cluster) ProbeOnce() []PeerStatus {
	out := make([]PeerStatus, 0, len(cl.peers))
	for _, p := range cl.peers {
		st, err := p.client.NodeStatus()
		ps := PeerStatus{Peer: Peer{Name: p.name, URL: p.url}, Node: st}
		if err != nil {
			ps.Err = describeClass(err)
			cl.setUp(p, false, "probe failed: "+ps.Err)
			cl.obs.Inc("hub_cluster_probes_total", obs.L("peer", p.name), obs.L("outcome", "down"))
		} else {
			cl.setUp(p, true, "probe ok")
			cl.obs.Inc("hub_cluster_probes_total", obs.L("peer", p.name), obs.L("outcome", "up"))
		}
		ps.Up = p.isUp()
		out = append(out, ps)
	}
	return out
}

// StartProbing runs ProbeOnce on a jittered interval (factor in
// [0.75, 1.25) from the cluster seed, so a fleet of routers does not
// probe in lockstep). Stop with StopProbing.
func (cl *Cluster) StartProbing(interval time.Duration) {
	if interval <= 0 {
		interval = 15 * time.Second
	}
	cl.probeStop = make(chan struct{})
	cl.probeDone = make(chan struct{})
	go func() {
		defer close(cl.probeDone)
		for {
			u := cl.jitter.Float64()
			timer := time.NewTimer(time.Duration(float64(interval) * (0.75 + 0.5*u)))
			select {
			case <-cl.probeStop:
				timer.Stop()
				return
			case <-timer.C:
			}
			cl.ProbeOnce()
		}
	}()
}

// StopProbing halts the background probe loop.
func (cl *Cluster) StopProbing() {
	if cl.probeStop == nil {
		return
	}
	close(cl.probeStop)
	<-cl.probeDone
	cl.probeStop, cl.probeDone = nil, nil
}

// describeClass renders an error as a short stable phrase for the
// decision log — no URLs, addresses, or ports.
func describeClass(err error) string {
	var he *hub.HTTPError
	if errors.As(err, &he) {
		return fmt.Sprintf("HTTP %d", he.Status)
	}
	if errors.Is(err, hub.ErrQuarantined) {
		return "quarantined"
	}
	if errors.Is(err, hub.ErrCircuitOpen) {
		return "breaker open"
	}
	if hub.Classify(err) == hub.ClassTransient {
		return "transport error"
	}
	return "error"
}

// logf appends one line to the cluster decision log.
func (cl *Cluster) logf(format string, args ...any) {
	cl.logMu.Lock()
	cl.log = append(cl.log, fmt.Sprintf(format, args...))
	cl.logMu.Unlock()
}

// Log returns a copy of the decision log: peer names and outcomes only,
// byte-identical across runs for a fixed seed and fault plan.
func (cl *Cluster) Log() []string {
	cl.logMu.Lock()
	defer cl.logMu.Unlock()
	return append([]string(nil), cl.log...)
}

// FormatLog renders the decision log as one newline-joined block.
func (cl *Cluster) FormatLog() string {
	lines := cl.Log()
	if len(lines) == 0 {
		return "(no cluster operations)"
	}
	return strings.Join(lines, "\n")
}

// ResetLog clears the decision log.
func (cl *Cluster) ResetLog() {
	cl.logMu.Lock()
	cl.log = nil
	cl.logMu.Unlock()
}
