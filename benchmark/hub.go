package main

import (
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/hostenv"
	"repro/internal/hub"
	"repro/internal/hub/cluster"
	"repro/internal/obs"
	"repro/internal/recipe"
	"repro/internal/rng"
	"repro/internal/runtime"
)

// The hub workload's cluster and traffic mix.
const (
	hubPeers       = 3
	hubReplication = 2
	hubSeedRevs    = 8
	// One paper pass pushes paperPushes images to its hub and pulls
	// paperPulls (TestHubMixMatchesPaperPass counts them), so that share
	// of ops publish a new revision and the rest pull one and run it.
	paperPushes     = 9
	paperPulls      = 30
	hubPublishShare = float64(paperPushes) / (paperPushes + paperPulls)
	// Assumed, not measured: which revision a pull fetches (uniform over
	// every published one) and whether its node already holds the base
	// layers (half of the pulls). The paper pass pulls whole images, so it
	// has no layer cache to measure a split from.
	hubColdPullShare = 0.5
)

var hubWorkload = &workload{
	name:           "hub",
	why:            "the Fig 6 path on a 3-peer cluster: publish and pull-and-run at the paper pass's 9:30 push:pull ratio, cold/warm split assumed",
	warmup:         100,
	heapAfterSetup: true,
	setup:          newHub,
	layers: []layerMetric{
		{"runtime.build_ms", "ms", selfMS("runtime.build", "push")},
		{"cluster.push_ms", "ms", selfMS("cluster.push", "push")},
		{"cluster.replica_writes", "count", counterMean("hub_cluster_replica_writes_total", "push", 1)},
		{"hub.layers_pushed", "count", counterMean("hub_client_layers_pushed_total", "push", 1)},
		{"hub.layer_push_skip_ratio", "ratio", ratio("push",
			[]string{"hub_client_layers_skipped_total"},
			[]string{"hub_client_layers_skipped_total", "hub_client_layers_pushed_total"})},
		{"cluster.pull_ms", "ms", selfMS("cluster.pull", "pull")},
		{"hostenv.prepare_ms", "ms", selfMS("hostenv.prepare", "pull")},
		{"hub.layers_pulled", "count", counterMean("hub_client_layers_pulled_total", "pull", 1)},
		{"hub.layer_cache_hit_ratio", "ratio", ratio("pull",
			[]string{"hub_client_layer_cache_hits_total"},
			[]string{"hub_client_layer_cache_hits_total", "hub_client_layers_pulled_total"})},
		{"hub.client_retries", "count", counterMean("hub_client_retries_total", "", 1)},
		{"cluster.read_failovers", "count", counterMean("hub_cluster_read_failovers_total", "", 1)},
		{"push_p50_ms", "ms", latencyPct("push", p50)},
		{"push_p90_ms", "ms", latencyPct("push", p90)},
		{"pull_p50_ms", "ms", latencyPct("pull", p50)},
		{"pull_p90_ms", "ms", latencyPct("pull", p90)},
		// Shared with paper.
		{"core.validate_ms", "ms", selfMS("core.validate", "pull")},
		{"runtime.stage_replay_ratio", "ratio", stageReplayRatio("push")},
		{"hub.bytes_pushed", "bytes", sumMean(hubBytesPushed, "push")},
		{"hub.bytes_pulled", "bytes", sumMean(hubBytesPulled, "pull")},
		{"hub.server_busy_ms", "ms", serverBusyMS("")},
	},
}

// revision is one published image.
type revision struct {
	tool   core.Tool
	tag    string
	digest string
}

// hubRun is a 3-peer in-process cluster on loopback. Every node shares
// one keep-alive transport, and requests go out one at a time.
type hubRun struct {
	e         *env
	r         *rng.Source
	reg       *obs.Registry
	counters  map[string]float64 // reg at the end of the previous op
	fw        *core.Framework
	builder   *hostenv.Host
	servers   []*hub.Server
	stores    []*hub.Store
	transport *http.Transport
	opts      cluster.Options
	publisher *cluster.Cluster
	// warm is a node whose layer cache already holds every tool's base
	// layers; cold pulls build a fresh node instead.
	warm      *cluster.Cluster
	published []revision
	nextRev   map[core.Tool]int
	recipes   map[core.Tool]string
	// reference is each tool's container output on the build host.
	reference map[core.Tool]string
	hosts     []string
}

func newHub(e *env) (rn runner, err error) {
	h := &hubRun{
		e: e, r: rng.New(e.seed), fw: core.New(),
		nextRev: map[core.Tool]int{}, recipes: map[core.Tool]string{}, reference: map[core.Tool]string{},
		hosts: hostenv.Names(),
	}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	if e.traced {
		h.reg = obs.NewRegistry()
		// The engine's counters only: the framework's spans would pile up
		// in the registry for the whole run.
		h.fw.Engine.Obs = h.reg
	}
	if h.builder, err = prepareHost(nil, hostenv.BuildHost); err != nil {
		return nil, err
	}
	h.transport = http.DefaultTransport.(*http.Transport).Clone()
	var peers []cluster.Peer
	for i := 0; i < hubPeers; i++ {
		store := hub.NewStore()
		srv := hub.NewServer(store)
		srv.PeerName = fmt.Sprintf("peer-%d", i)
		srv.EnableMetrics(h.reg)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		h.servers = append(h.servers, srv)
		h.stores = append(h.stores, store)
		peers = append(peers, cluster.Peer{Name: srv.PeerName, URL: "http://" + addr})
	}
	h.opts = cluster.Options{
		Peers: peers, Replication: hubReplication, Seed: e.seed, Obs: h.reg,
		Client: hub.ClientOptions{Transport: h.transport},
	}
	if h.publisher, err = cluster.New(h.opts); err != nil {
		return nil, err
	}
	if h.warm, err = cluster.New(h.opts); err != nil {
		return nil, err
	}
	for _, t := range core.Tools() {
		rcp, err := core.Recipe(t)
		if err != nil {
			return nil, err
		}
		h.recipes[t] = rcp.Source
		base, err := h.fw.Build(t, h.builder)
		if err != nil {
			return nil, err
		}
		ex := core.ExampleModel(t)
		rep, err := h.fw.Validate(t, h.builder, base.Image, ex.Name, ex.Source, ex.Args...)
		if err != nil {
			return nil, err
		}
		h.reference[t] = rep.ContainerOut
		for k := 0; k < hubSeedRevs; k++ {
			if err := h.publish(t); err != nil {
				return nil, err
			}
		}
		first := h.published[len(h.published)-hubSeedRevs]
		if err := h.pull(h.warm, first, h.builder.Name); err != nil {
			return nil, err
		}
	}
	h.counters = flatten(h.reg.Snapshot())
	return h, nil
}

func (h *hubRun) op() (kind string, err error) {
	if h.r.Float64() < hubPublishShare {
		kind = "push"
		err = h.publish(core.Tools()[h.r.Intn(len(core.Tools()))])
	} else {
		kind = "pull"
		target := h.published[h.r.Intn(len(h.published))]
		cold := h.r.Float64() < hubColdPullShare
		host := h.hosts[h.r.Intn(len(h.hosts))]
		node := h.warm
		if cold {
			sp := h.e.tr.begin("cluster.new")
			node, err = cluster.New(h.opts)
			sp.end()
		}
		if err == nil {
			err = h.pull(node, target, host)
		}
	}
	if h.reg != nil {
		cur := flatten(h.reg.Snapshot())
		h.e.tr.addCounters(delta(cur, h.counters))
		h.counters = cur
	}
	return kind, err
}

// publish rebuilds a tool's recipe with one new final %post stage, a warm
// rebuild that replays every earlier stage, and pushes it to its owners.
func (h *hubRun) publish(t core.Tool) error {
	tr := h.e.tr
	rev := h.nextRev[t]
	h.nextRev[t]++
	tag := fmt.Sprintf("rev-%d", rev)
	sp := tr.begin("recipe.parse")
	rcp, err := recipe.Parse(h.recipes[t] + fmt.Sprintf("\n%%post\n    echo %s %s > /usr/local/revision\n", t, tag))
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.begin("runtime.build")
	build, err := h.fw.Engine.Build(rcp, h.builder, runtime.BuildContext{}, string(t), tag)
	sp.end()
	if err != nil {
		return err
	}
	if build.StagesExecuted != 1 {
		return fmt.Errorf("hub: rebuild of %s:%s executed %d stages, want only the new one", t, tag, build.StagesExecuted)
	}
	sp = tr.begin("cluster.push")
	digest, err := h.publisher.Push(h.fw.Collection, build.Image)
	sp.end()
	if err != nil {
		return err
	}
	if digest != build.Digest {
		return fmt.Errorf("hub: pushed %s:%s as %s, built %s", t, tag, digest, build.Digest)
	}
	h.published = append(h.published, revision{tool: t, tag: tag, digest: digest})
	return nil
}

// pull fetches a revision through a node and runs its tool natively and
// in the container on a host profile, checking the digest and outputs.
func (h *hubRun) pull(node *cluster.Cluster, rev revision, hostName string) error {
	tr := h.e.tr
	sp := tr.begin("cluster.pull")
	img, digest, err := node.Pull(h.fw.Collection, string(rev.tool), rev.tag, rev.digest)
	sp.end()
	if err != nil {
		return err
	}
	if digest != rev.digest {
		return fmt.Errorf("hub: pulled %s:%s as %s, published %s", rev.tool, rev.tag, digest, rev.digest)
	}
	host, err := prepareHost(tr, hostName)
	if err != nil {
		return err
	}
	ex := core.ExampleModel(rev.tool)
	sp = tr.begin("core.validate")
	rep, err := h.fw.Validate(rev.tool, host, img, ex.Name, ex.Source, ex.Args...)
	sp.end()
	if err != nil {
		return err
	}
	if !rep.Match || rep.ContainerOut != h.reference[rev.tool] {
		return fmt.Errorf("hub: %s:%s on %s: output differs from native or from the build host", rev.tool, rev.tag, hostName)
	}
	return nil
}

// finish scrubs every peer: no stored blob may have rotted.
func (h *hubRun) finish() error {
	for i, s := range h.stores {
		if rep := s.ScrubOnce(nil); rep.Corrupt != 0 {
			return fmt.Errorf("hub: scrub found %d corrupt entries on peer-%d", rep.Corrupt, i)
		}
	}
	return nil
}

func (h *hubRun) close() {
	for _, s := range h.servers {
		s.Close()
	}
	if h.transport != nil {
		h.transport.CloseIdleConnections()
	}
}
