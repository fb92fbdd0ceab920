package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/hub"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/vfs"
)

func testImage(name, tag, content string) *image.Image {
	fs := vfs.New()
	fs.WriteFile("/payload", []byte(content), 0o644)
	return &image.Image{
		Meta: image.Metadata{Name: name, Tag: tag, BaseRef: "centos:7.4", BuildHost: "centos-7.4-proliant"},
		FS:   fs,
	}
}

// layeredTestImage builds an image with one layer per stage content, so
// images sharing stage prefixes share layers (the delta-transfer tests
// rely on this).
func layeredTestImage(t *testing.T, name, tag string, stages ...string) *image.Image {
	t.Helper()
	snaps := make([]*vfs.FS, 0, len(stages))
	fs := vfs.New()
	for i, content := range stages {
		fs = fs.Clone()
		if err := fs.WriteFile(fmt.Sprintf("/stage%d", i), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, fs)
	}
	layers, err := image.LayersFromSnapshots(snaps)
	if err != nil {
		t.Fatal(err)
	}
	meta := image.Metadata{Name: name, Tag: tag, BaseRef: "centos:7.4", BuildHost: "centos-7.4-proliant"}
	img, err := image.AssembleFromLayers(meta, layers)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// chaosClientOptions are fast, fully deterministic per-peer client
// knobs: no real sleeping, tiny backoff, fixed jitter seed.
func chaosClientOptions(attempts int) hub.ClientOptions {
	return hub.ClientOptions{
		Retry:      hub.RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		JitterSeed: 7,
		Sleep:      func(time.Duration) {},
	}
}

// harness is a whole in-process cluster: one hub server + store per
// peer name, wired to one Cluster router.
type harness struct {
	cl     *Cluster
	reg    *obs.Registry
	stores map[string]*hub.Store
	urls   map[string]string
}

// newHarness spins one hub per name. serverPlan (may be nil) wraps each
// server's handler via MiddlewareFor(name); clientPlan (may be nil)
// gives each peer client a faulting transport via TransportFor(name).
func newHarness(t *testing.T, names []string, r int, serverPlan, clientPlan *faultinject.Plan, attempts int) *harness {
	t.Helper()
	h := &harness{reg: obs.NewRegistry(), stores: map[string]*hub.Store{}, urls: map[string]string{}}
	var peers []Peer
	for _, n := range names {
		store := hub.NewStore()
		srv := hub.NewServer(store)
		srv.PeerName = n
		var handler http.Handler = srv.Handler()
		if serverPlan != nil {
			handler = serverPlan.MiddlewareFor(n, handler)
		}
		ts := httptest.NewServer(handler)
		t.Cleanup(ts.Close)
		h.stores[n] = store
		h.urls[n] = ts.URL
		peers = append(peers, Peer{Name: n, URL: ts.URL})
	}
	opts := Options{Peers: peers, Replication: r, Seed: 1, Obs: h.reg, Client: chaosClientOptions(attempts)}
	if clientPlan != nil {
		opts.TransportFor = func(peer string) http.RoundTripper { return clientPlan.TransportFor(peer, nil) }
	}
	cl, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	h.cl = cl
	return h
}

// clusterOver builds a second Cluster over names against the harness's
// servers: membership is static, so a peer joining or leaving is a new
// Cluster over the new peer list.
func (h *harness) clusterOver(t *testing.T, names []string, r, attempts int) *Cluster {
	t.Helper()
	var peers []Peer
	for _, n := range names {
		peers = append(peers, Peer{Name: n, URL: h.urls[n]})
	}
	cl, err := New(Options{Peers: peers, Replication: r, Seed: 1, Obs: h.reg, Client: chaosClientOptions(attempts)})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestParsePeers(t *testing.T) {
	cases := []struct {
		spec string
		want []Peer
		ok   bool
	}{
		{"a=http://h1:1,b=http://h2:2", []Peer{{"a", "http://h1:1"}, {"b", "http://h2:2"}}, true},
		{" a=u1 , , b=u2 ", []Peer{{"a", "u1"}, {"b", "u2"}}, true},
		{"a=u1,a=u2", nil, false}, // duplicate name
		{"nourl", nil, false},
		{"=u1", nil, false},
		{"a=", nil, false},
		{"", nil, false},
		{" , ", nil, false},
	}
	for _, c := range cases {
		got, err := ParsePeers(c.spec)
		if c.ok != (err == nil) {
			t.Errorf("ParsePeers(%q) error = %v, want ok=%v", c.spec, err, c.ok)
			continue
		}
		if c.ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParsePeers(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestRankDeterministicOrderIndependent(t *testing.T) {
	peers := []string{"a", "b", "c", "d", "e"}
	shuffled := []string{"d", "b", "e", "a", "c"}
	key := "sha256:0011"
	r1 := Rank(peers, key)
	r2 := Rank(shuffled, key)
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("ranking depends on input order: %v vs %v", r1, r2)
	}
	if !reflect.DeepEqual(r1, Rank(peers, key)) {
		t.Error("ranking is not stable across calls")
	}
	seen := map[string]bool{}
	for _, p := range r1 {
		seen[p] = true
	}
	if len(seen) != len(peers) {
		t.Errorf("ranking %v is not a permutation of %v", r1, peers)
	}
	if !reflect.DeepEqual(Owners(peers, key, 3), r1[:3]) {
		t.Error("Owners is not the ranking prefix")
	}
	if got := Owners(peers, key, 99); len(got) != len(peers) {
		t.Errorf("Owners with r > n returned %d peers", len(got))
	}
}

// TestOwnersMinimalMovement: removing a non-owner never changes a key's
// owners, and removing one owner replaces exactly that owner — the
// rendezvous property rebalancing depends on.
func TestOwnersMinimalMovement(t *testing.T) {
	peers := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("sha256:%04d", i)
		owners := Owners(peers, key, 2)
		isOwner := map[string]bool{owners[0]: true, owners[1]: true}
		for _, gone := range peers {
			rest := make([]string, 0, len(peers)-1)
			for _, p := range peers {
				if p != gone {
					rest = append(rest, p)
				}
			}
			after := Owners(rest, key, 2)
			if !isOwner[gone] {
				if !reflect.DeepEqual(after, owners) {
					t.Fatalf("key %s: removing non-owner %s moved owners %v -> %v", key, gone, owners, after)
				}
				continue
			}
			survivors := 0
			for _, o := range after {
				if isOwner[o] && o != gone {
					survivors++
				}
			}
			if survivors != 1 {
				t.Fatalf("key %s: removing owner %s kept %d of the remaining owners (%v -> %v)",
					key, gone, survivors, owners, after)
			}
		}
	}
}

func TestOwnersSpreadAcrossPeers(t *testing.T) {
	peers := []string{"a", "b", "c", "d", "e"}
	load := map[string]int{}
	for i := 0; i < 100; i++ {
		for _, o := range Owners(peers, fmt.Sprintf("sha256:spread-%d", i), 2) {
			load[o]++
		}
	}
	for _, p := range peers {
		if load[p] == 0 {
			t.Errorf("peer %s owns none of 100 keys: %v", p, load)
		}
	}
}

func TestClusterPushPullRoundTrip(t *testing.T) {
	names := []string{"a", "b", "c"}
	h := newHarness(t, names, 2, nil, nil, 3)
	img := testImage("pepa", "latest", "solver-v1")
	digest, err := h.cl.Push("tools", img)
	if err != nil {
		t.Fatal(err)
	}

	owners := Owners(names, digest, 2)
	isOwner := map[string]bool{owners[0]: true, owners[1]: true}
	for _, n := range names {
		want := 0
		if isOwner[n] {
			want = 1
		}
		if got := h.stores[n].EntryCount(); got != want {
			t.Errorf("peer %s holds %d entries, want %d (owners %v)", n, got, want, owners)
		}
	}

	for _, expected := range []string{"", digest} {
		pulled, gotDigest, err := h.cl.Pull("tools", "pepa", "latest", expected)
		if err != nil {
			t.Fatalf("pull (digest %q): %v", expected, err)
		}
		if gotDigest != digest {
			t.Errorf("pull digest = %s, want %s", gotDigest, digest)
		}
		data, err := pulled.FS.ReadFile("/payload")
		if err != nil || string(data) != "solver-v1" {
			t.Errorf("payload = %q, %v", data, err)
		}
	}
}

// TestPushHandoffAndDelivery: a push with one owner down still succeeds,
// leaves a journaled hint for the down owner, and a DeliverHints drive
// on its recovery installs the write and retires the hint.
func TestPushHandoffAndDelivery(t *testing.T) {
	names := []string{"a", "b", "c"}
	h := newHarness(t, names, 2, nil, nil, 3)
	img := testImage("pepa", "latest", "solver-v1")
	digest, err := img.Digest()
	if err != nil {
		t.Fatal(err)
	}
	down := Owners(names, digest, 2)[0]
	h.cl.setUp(h.cl.peer(down), false, "test: simulated outage")

	if _, err := h.cl.Push("tools", img); err != nil {
		t.Fatal(err)
	}
	if got := h.stores[down].EntryCount(); got != 0 {
		t.Errorf("down owner %s holds %d entries", down, got)
	}
	var hints []hub.Hint
	for _, n := range names {
		hints = append(hints, h.stores[n].Hints(down)...)
	}
	want := hub.Hint{Target: down, Collection: "tools", Container: "pepa", Tag: "latest", Digest: digest}
	if !reflect.DeepEqual(hints, []hub.Hint{want}) {
		t.Fatalf("journaled hints = %+v, want exactly %+v", hints, want)
	}
	// The pull must succeed without the down owner.
	if _, gotDigest, err := h.cl.Pull("tools", "pepa", "latest", digest); err != nil || gotDigest != digest {
		t.Fatalf("pull with down owner = (%s, %v)", gotDigest, err)
	}

	// Recovery: the delivery drive probes the target back up, streams the
	// hinted write, and acks the hint on its holder.
	rep, err := h.cl.DeliverHints(down)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hints != 1 || rep.Delivered != 1 || rep.Acked != 1 || rep.Failed != 0 {
		t.Errorf("delivery report = %+v", rep)
	}
	if !h.cl.peer(down).isUp() {
		t.Error("target still marked down after successful delivery")
	}
	if got := h.stores[down].EntryCount(); got != 1 {
		t.Errorf("recovered owner holds %d entries, want 1", got)
	}
	for _, n := range names {
		if left := h.stores[n].Hints(down); len(left) != 0 {
			t.Errorf("peer %s still journals hints %+v", n, left)
		}
	}
	if got := h.reg.Counter("hub_cluster_hints_delivered_total", obs.L("target", down)); got != 1 {
		t.Errorf("hub_cluster_hints_delivered_total{target=%s} = %v, want 1", down, got)
	}
}

// TestRebalanceAfterJoin: a new member receives exactly its share of the
// catalog when a cluster over the grown peer list rebalances, and a
// second drive is a no-op.
func TestRebalanceAfterJoin(t *testing.T) {
	names := []string{"a", "b"}
	h := newHarness(t, names, 2, nil, nil, 3)
	imgs := map[string]string{}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("app%d", i)
		digest, err := h.cl.Push("tools", testImage(name, "v1", name+"-payload"))
		if err != nil {
			t.Fatal(err)
		}
		imgs[name] = digest
	}

	store := hub.NewStore()
	srv := hub.NewServer(store)
	srv.PeerName = "c"
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	h.stores["c"] = store
	h.urls["c"] = ts.URL
	grown := h.clusterOver(t, []string{"a", "b", "c"}, 2, 3)

	rep := grown.RebalanceOnce()
	if rep.Refs != 4 || rep.Failed != 0 {
		t.Fatalf("rebalance report = %+v", rep)
	}
	members := grown.PeerNames()
	for name, digest := range imgs {
		for _, o := range Owners(members, digest, 2) {
			entries, err := grown.PeerClient(o).List("tools")
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, e := range entries {
				if e.Container == name && e.Digest == digest {
					found = true
				}
			}
			if !found {
				t.Errorf("owner %s misses %s after rebalance", o, name)
			}
		}
	}
	if again := grown.RebalanceOnce(); again.Transferred != 0 || again.Failed != 0 {
		t.Errorf("second rebalance moved data: %+v", again)
	}
}

// TestRemovePeerRestoresReplication: after a member leaves, one drive of a
// cluster over the shrunk peer list re-replicates the keys it owned onto
// the surviving owners.
func TestRemovePeerRestoresReplication(t *testing.T) {
	names := []string{"a", "b", "c"}
	h := newHarness(t, names, 2, nil, nil, 3)
	var digests []string
	for i := 0; i < 4; i++ {
		d, err := h.cl.Push("tools", testImage(fmt.Sprintf("app%d", i), "v1", fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	shrunk := h.clusterOver(t, []string{"a", "c"}, 2, 3)
	if got := shrunk.PeerNames(); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Fatalf("shrunk membership = %v, want [a c]", got)
	}
	shrunk.RebalanceOnce()
	for i, d := range digests {
		for _, o := range Owners(shrunk.PeerNames(), d, 2) {
			entries, err := shrunk.PeerClient(o).List("tools")
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, e := range entries {
				if e.Container == fmt.Sprintf("app%d", i) && e.Digest == d {
					found = true
				}
			}
			if !found {
				t.Errorf("owner %s misses app%d after departure rebalance", o, i)
			}
		}
	}
}

func TestProbeOnceTracksHealth(t *testing.T) {
	// Server-side plan: peer b refuses its first 2 requests, then heals.
	plan := faultinject.NewPlan(1,
		faultinject.Rule{Peer: "b", Kind: faultinject.KindConn, First: 2})
	h := newHarness(t, []string{"a", "b"}, 2, plan, nil, 1)

	st := h.cl.ProbeOnce()
	if len(st) != 2 || !st[0].Up || st[1].Up {
		t.Fatalf("first probe = %+v, want a up and b down", st)
	}
	if st[1].Err != "transport error" {
		t.Errorf("b's probe error class = %q", st[1].Err)
	}
	if got := h.reg.Gauge("hub_cluster_peer_up", obs.L("peer", "b")); got != 0 {
		t.Errorf("hub_cluster_peer_up{peer=b} = %v, want 0", got)
	}

	st = h.cl.ProbeOnce() // b's fault budget (2) is spent by probe 1 + this one
	if st[1].Up {
		t.Fatal("b still down after one more faulted probe")
	}
	st = h.cl.ProbeOnce()
	if !st[1].Up {
		t.Fatalf("b did not recover: %+v", st[1])
	}
	if st[1].Node.Peer != "b" {
		t.Errorf("recovered status = %+v, want node report from b", st[1].Node)
	}
	if got := h.reg.Gauge("hub_cluster_peer_up", obs.L("peer", "b")); got != 1 {
		t.Errorf("hub_cluster_peer_up{peer=b} = %v, want 1", got)
	}
}
