package cluster

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// The cluster acceptance scenarios from the issue, driven end to end
// through the deterministic fault plan: a replica killed mid-pull, a
// rejoined peer receiving only the layers it missed, and bit-rot healed
// by scrub + read repair — each asserting both the outcome and the
// stability of the decision logs across runs.

// runKilledReplicaScenario pushes one image to an R=3 cluster, then
// pulls it through a fresh router whose connection to the first-ranked
// owner dies on every layer fetch — the client-side view of a replica
// killed mid-pull. Returns the pulled bytes and both decision logs.
func runKilledReplicaScenario(t *testing.T) (pulledBytes []byte, wantBytes []byte, clusterLog, planLog string) {
	t.Helper()
	names := []string{"a", "b", "c"}
	h := newHarness(t, names, 3, nil, nil, 2)
	img := layeredTestImage(t, "pepa", "latest", "base", "deps", "solver")
	digest, err := h.cl.Push("tools", img)
	if err != nil {
		t.Fatal(err)
	}
	victim := h.cl.rank(digest)[0]

	// A separate router with an empty layer cache, so the pull really
	// fetches layers over the wire; the victim's transport drops every
	// layer GET, like a process killed after serving the manifest.
	plan := faultinject.NewPlan(1, faultinject.Rule{
		Peer: victim, Match: "GET /v1/_layers/", Kind: faultinject.KindConn, First: 1 << 30,
	})
	var peers []Peer
	for _, n := range names {
		peers = append(peers, Peer{Name: n, URL: h.urls[n]})
	}
	reg := obs.NewRegistry()
	reader, err := New(Options{
		Peers: peers, Replication: 3, Seed: 1, Obs: reg, Client: chaosClientOptions(2),
		TransportFor: func(p string) http.RoundTripper { return plan.TransportFor(p, nil) },
	})
	if err != nil {
		t.Fatal(err)
	}

	pulled, gotDigest, err := reader.Pull("tools", "pepa", "latest", digest)
	if err != nil {
		t.Fatalf("pull did not fail over: %v\nlog:\n%s", err, reader.FormatLog())
	}
	if gotDigest != digest {
		t.Errorf("digest = %s, want %s", gotDigest, digest)
	}
	if reader.peer(victim).isUp() {
		t.Errorf("victim %s still marked up after the kill", victim)
	}
	if got := reg.Counter("hub_cluster_read_failovers_total", obs.L("peer", victim)); got != 1 {
		t.Errorf("hub_cluster_read_failovers_total{peer=%s} = %v, want 1", victim, got)
	}
	got, err := pulled.MarshalLayered()
	if err != nil {
		t.Fatal(err)
	}
	want, err := img.MarshalLayered()
	if err != nil {
		t.Fatal(err)
	}
	return got, want, reader.FormatLog(), plan.FormatLog()
}

// TestChaosKilledReplicaMidPull: killing one of the R=3 replicas mid-
// pull still yields the byte-identical image via failover, and both the
// router's decision log and the fault plan's op log are byte-identical
// across runs — the reproducibility contract.
func TestChaosKilledReplicaMidPull(t *testing.T) {
	got1, want1, clog1, plog1 := runKilledReplicaScenario(t)
	if !bytes.Equal(got1, want1) {
		t.Fatal("pulled image differs from the pushed bytes")
	}
	if !strings.Contains(clog1, "failing over") || !strings.Contains(clog1, "marked down") {
		t.Errorf("decision log misses the failover story:\n%s", clog1)
	}
	got2, _, clog2, plog2 := runKilledReplicaScenario(t)
	if !bytes.Equal(got1, got2) {
		t.Error("pulled bytes differ between runs")
	}
	if clog1 != clog2 {
		t.Errorf("cluster decision log not reproducible:\n--- run 1\n%s\n--- run 2\n%s", clog1, clog2)
	}
	if plog1 != plog2 {
		t.Errorf("fault plan log not reproducible:\n--- run 1\n%s\n--- run 2\n%s", plog1, plog2)
	}
}

// TestChaosRejoinStreamsOnlyHintedLayers: a peer that was down for one
// push receives, on rejoin, only the layers it does not already hold —
// the hinted write rides the layer negotiation, so shared base layers
// never cross the wire again.
func TestChaosRejoinStreamsOnlyHintedLayers(t *testing.T) {
	names := []string{"a", "b", "c"}
	h := newHarness(t, names, 3, nil, nil, 3)

	// v1 reaches everybody: 3 fresh layers per replica.
	v1 := layeredTestImage(t, "pepa", "v1", "base", "deps", "solver-v1")
	if _, err := h.cl.Push("tools", v1); err != nil {
		t.Fatal(err)
	}
	// c goes down; v2 (sharing base+deps with v1) is pushed with handoff.
	h.cl.setUp(h.cl.peer("c"), false, "test: simulated outage")
	v2 := layeredTestImage(t, "pepa", "v2", "base", "deps", "solver-v2")
	if _, err := h.cl.Push("tools", v2); err != nil {
		t.Fatal(err)
	}
	if got := h.stores["c"].EntryCount(); got != 1 {
		t.Fatalf("down peer holds %d entries, want just v1", got)
	}

	pushedBefore := h.reg.Counter("hub_client_layers_pushed_total")
	rep, err := h.cl.DeliverHints("c")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 1 || rep.Acked != 1 || rep.Failed != 0 {
		t.Fatalf("delivery report = %+v", rep)
	}
	pushedDelta := h.reg.Counter("hub_client_layers_pushed_total") - pushedBefore
	if pushedDelta != 1 {
		t.Errorf("rejoin pushed %v layers over the wire, want only the 1 missing (solver-v2)", pushedDelta)
	}
	if got := h.stores["c"].EntryCount(); got != 2 {
		t.Errorf("rejoined peer holds %d entries, want 2", got)
	}
	if got := h.stores["c"].LayerCount(); got != 4 {
		t.Errorf("rejoined peer indexes %d layers, want 4 (3 shared + solver-v2)", got)
	}
	for _, n := range names {
		if left := h.stores[n].Hints("c"); len(left) != 0 {
			t.Errorf("peer %s still journals hints for c: %+v", n, left)
		}
	}
}

// TestChaosBitRotScrubAndReadRepair is satellite 3: rot one replica's
// stored bytes, let the scrubber quarantine it, and assert a clustered
// pull fails over past the quarantined copy and repairs it in place —
// after which a full-cluster scrub finds zero mismatches.
func TestChaosBitRotScrubAndReadRepair(t *testing.T) {
	names := []string{"a", "b", "c"}
	h := newHarness(t, names, 3, nil, nil, 3)
	img := layeredTestImage(t, "pepa", "latest", "base", "deps", "solver")
	digest, err := h.cl.Push("tools", img)
	if err != nil {
		t.Fatal(err)
	}
	victim := h.cl.rank(digest)[0]

	// Deterministic rot on the first replica every pull tries.
	if !h.stores[victim].FlipBit("tools", "pepa", "latest", 31) {
		t.Fatal("FlipBit found no blob to rot")
	}
	scrub := h.stores[victim].ScrubOnce(nil)
	if scrub.Corrupt != 1 {
		t.Fatalf("scrub on rotted replica = %+v, want exactly one quarantine", scrub)
	}

	pulled, gotDigest, err := h.cl.Pull("tools", "pepa", "latest", digest)
	if err != nil {
		t.Fatalf("pull did not fail over past the quarantined replica: %v\nlog:\n%s", err, h.cl.FormatLog())
	}
	if gotDigest != digest {
		t.Errorf("digest = %s, want %s", gotDigest, digest)
	}
	for i, want := range []string{"base", "deps", "solver"} {
		data, err := pulled.FS.ReadFile("/stage" + string(rune('0'+i)))
		if err != nil || string(data) != want {
			t.Errorf("stage %d = (%q, %v), want %q", i, data, err, want)
		}
	}

	// The quarantined replica was repaired in place by the read path.
	if got := h.stores[victim].QuarantinedCount(); got != 0 {
		t.Errorf("victim still quarantines %d entries after read repair", got)
	}
	if got := h.reg.Counter("hub_cluster_read_repairs_total", obs.L("peer", victim), obs.L("outcome", "ok")); got != 1 {
		t.Errorf("hub_cluster_read_repairs_total{peer=%s,outcome=ok} = %v, want 1", victim, got)
	}
	if got := h.reg.Counter("hub_cluster_read_failovers_total", obs.L("peer", victim)); got != 1 {
		t.Errorf("hub_cluster_read_failovers_total{peer=%s} = %v, want 1", victim, got)
	}
	repaired, repairedDigest, err := h.cl.PeerClient(victim).Pull("tools", "pepa", "latest", digest)
	if err != nil || repairedDigest != digest {
		t.Fatalf("direct pull from repaired replica = (%s, %v)", repairedDigest, err)
	}
	if data, err := repaired.FS.ReadFile("/stage2"); err != nil || string(data) != "solver" {
		t.Errorf("repaired payload = (%q, %v)", data, err)
	}

	// Full-cluster scrub: every replica re-hashes clean.
	for _, n := range names {
		if rep := h.stores[n].ScrubOnce(nil); rep.Corrupt != 0 || rep.Skipped != 0 {
			t.Errorf("final scrub on %s = %+v, want zero mismatches and zero quarantined", n, rep)
		}
	}
}

// TestChaosPushFansOutUnderServerFaults: a push against a cluster whose
// first-ranked owner sheds its first two requests with 503s still lands
// on all R owners (the per-peer client retries absorb the weather) and
// trips neither handoff nor breaker for the healthy peers.
func TestChaosPushFansOutUnderServerFaults(t *testing.T) {
	names := []string{"a", "b", "c"}
	img := layeredTestImage(t, "pepa", "latest", "base", "deps", "solver")
	digest, err := img.Digest()
	if err != nil {
		t.Fatal(err)
	}
	first := Rank(names, digest)[0]
	plan := faultinject.NewPlan(1,
		faultinject.Rule{Peer: first, Kind: faultinject.KindStatus, Status: 503, First: 2})
	h := newHarness(t, names, 3, plan, nil, 4)
	if _, err := h.cl.Push("tools", img); err != nil {
		t.Fatalf("push under 503 weather: %v\nlog:\n%s", err, h.cl.FormatLog())
	}
	for _, n := range names {
		if got := h.stores[n].EntryCount(); got != 1 {
			t.Errorf("replica %s holds %d entries, want 1", n, got)
		}
		if got := h.stores[n].HintCount(); got != 0 {
			t.Errorf("replica %s journals %d hints, want none", n, got)
		}
	}
	if !h.cl.peer(first).isUp() {
		t.Errorf("first owner %s marked down by retryable weather", first)
	}
}

// alterFirstManifest rewrites old to new (same length) in the body of
// the first manifest GET it carries and leaves the headers alone: an
// alteration in transit.
type alterFirstManifest struct {
	old, new string
	fired    atomic.Bool
}

func (a *alterFirstManifest) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.Method != http.MethodGet || !strings.HasSuffix(req.URL.Path, "/manifest") || !a.fired.CompareAndSwap(false, true) {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(strings.NewReader(strings.Replace(string(body), a.old, a.new, 1)))
	return resp, nil
}

// TestChaosManifestAlteredInTransitIsRepulled: one character of the
// first-ranked owner's first manifest response is altered in transit —
// in the run configuration, or in a layer digest. The manifest read is
// chunk-verified, so either alteration is a corrupt transfer that the
// same peer serves cleanly on the re-pull: the peer is not marked down,
// and no healthy replica is read-repaired.
func TestChaosManifestAlteredInTransitIsRepulled(t *testing.T) {
	img := layeredTestImage(t, "pepa", "latest", "base", "deps", "solver")
	layer := img.Layers[0].Digest()
	flipped := layer[:len(layer)-1] + "0"
	if flipped == layer {
		flipped = layer[:len(layer)-1] + "1"
	}
	for _, tc := range []struct{ name, old, new string }{
		{"config", `"baseRef":"centos`, `"baseRef":"Centos`},
		{"layer digest", layer, flipped},
	} {
		t.Run(tc.name, func(t *testing.T) {
			names := []string{"a", "b", "c"}
			h := newHarness(t, names, 3, nil, nil, 3)
			digest, err := h.cl.Push("tools", img)
			if err != nil {
				t.Fatal(err)
			}
			victim := h.cl.rank(digest)[0]
			alter := &alterFirstManifest{old: tc.old, new: tc.new}
			var peers []Peer
			for _, n := range names {
				peers = append(peers, Peer{Name: n, URL: h.urls[n]})
			}
			reg := obs.NewRegistry()
			reader, err := New(Options{
				Peers: peers, Replication: 3, Seed: 1, Obs: reg, Client: chaosClientOptions(3),
				TransportFor: func(p string) http.RoundTripper {
					if p == victim {
						return alter
					}
					return http.DefaultTransport
				},
			})
			if err != nil {
				t.Fatal(err)
			}

			if _, got, err := reader.Pull("tools", "pepa", "latest", digest); err != nil || got != digest {
				t.Fatalf("pull = (%s, %v), want %s\nlog:\n%s", got, err, digest, reader.FormatLog())
			}
			if !alter.fired.Load() {
				t.Fatal("no manifest response was altered")
			}
			log := reader.FormatLog()
			if !strings.Contains(log, "served by "+victim) || strings.Contains(log, "marked down") {
				t.Errorf("want the pull served by %s with no peer marked down; log:\n%s", victim, log)
			}
			attempts := strings.Join(reader.PeerClient(victim).AttemptsMatching("pull tools/pepa:latest attempt"), "\n")
			if !strings.Contains(attempts, "attempt 1/3: corrupt response (re-pulling once)") || !strings.Contains(attempts, "attempt 2/3: ok") {
				t.Errorf("want one corrupt read, then a clean re-pull:\n%s", attempts)
			}
			for _, n := range names {
				for _, outcome := range []string{"ok", "error"} {
					if got := reg.Counter("hub_cluster_read_repairs_total", obs.L("peer", n), obs.L("outcome", outcome)); got != 0 {
						t.Errorf("hub_cluster_read_repairs_total{peer=%s,outcome=%s} = %v, want 0", n, outcome, got)
					}
				}
			}
		})
	}
}
