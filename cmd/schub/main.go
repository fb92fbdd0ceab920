// Command schub is the container hub: it serves the registry API and also
// acts as a push/pull/list client.
//
// Usage:
//
//	schub serve -addr 127.0.0.1:7443 [-autobuild]
//	schub push -hub http://127.0.0.1:7443 -collection pepa-containers -image pepa.scif
//	schub pull -hub http://127.0.0.1:7443 -collection pepa-containers -name pepa -tag latest -o pepa.scif
//	schub list -hub http://127.0.0.1:7443 -collection pepa-containers
//	schub build -hub http://127.0.0.1:7443 -collection pepa-containers -name pepa -tag v1 -recipe pepa.def
//	schub cluster status -peers a=http://h1:7443,b=http://h2:7443
//	schub cluster rebalance -peers ... [-replication 2]
//	schub cluster deliver -peers ... -peer b
//
// A push negotiates by layer digest, so only layers the hub is missing
// cross the wire. A pull writes the hub's digest-verified bytes (the
// layered SCIF2 encoding) and resumes an interrupted layer transfer from
// its on-disk spool.
//
// With -autobuild the server builds pushed recipes itself on the CentOS
// build-host profile (Singularity-Hub's model); the build subcommand is
// the matching client.
//
// With -peers, push and pull route through the replicated-cluster layer
// (internal/hub/cluster): a push fans out to the R rendezvous owners of
// the content digest (degrading to journaled hinted handoff when an
// owner is down) and a pull fails over between replicas, repairing any
// found missing or quarantined. See docs/RESILIENCE.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/hub"
	"repro/internal/hub/cluster"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/sigctx"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "schub:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) < 2 {
		return fmt.Errorf("usage: schub serve|push|pull|list|build|cluster [flags]")
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	sub := ""
	if cmd == "cluster" {
		if len(os.Args) < 3 {
			return fmt.Errorf("usage: schub cluster status|rebalance|deliver -peers name=url,... [flags]")
		}
		sub = os.Args[2]
		args = os.Args[3:]
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7443", "serve address")
	hubURL := fs.String("hub", "http://127.0.0.1:7443", "hub base URL")
	collection := fs.String("collection", "pepa-containers", "collection name")
	imagePath := fs.String("image", "", "image file (push)")
	name := fs.String("name", "", "container name (pull)")
	tag := fs.String("tag", "latest", "tag")
	out := fs.String("o", "", "output path (pull)")
	digest := fs.String("digest", "", "expected digest (pull)")
	autobuild := fs.Bool("autobuild", false, "serve: build pushed recipes server-side")
	recipePath := fs.String("recipe", "", "build: definition file to submit")
	statePath := fs.String("state", "", "serve: persist the registry to this directory (loaded on start, saved on shutdown)")
	timeout := fs.Duration("timeout", 30*time.Second, "client: per-request HTTP timeout")
	retries := fs.Int("retries", 4, "client: total attempt budget per operation")
	faultSpec := fs.String("fault-spec", "", "serve: inject faults per this spec (e.g. \"503:2,corrupt\" or \"timeout:p0.1\"); chaos testing only")
	faultSeed := fs.Uint64("fault-seed", 1, "serve: seed for the -fault-spec plan")
	metricsAddr := fs.String("metrics-addr", "", "serve: also serve GET /metrics (Prometheus text) on this address")
	pprofOn := fs.Bool("pprof", false, "serve: expose /debug/pprof on the -metrics-addr listener")
	drain := fs.Duration("drain", 10*time.Second, "serve: how long a shutdown waits for in-flight requests before aborting them; the journal is flushed and compacted after the drain")
	scrubInterval := fs.Duration("scrub-interval", 5*time.Minute, "serve: background integrity-scrub interval (0 disables)")
	scrubSeed := fs.Uint64("scrub-seed", 1, "serve: seed for the scrub interval jitter")
	maxInflight := fs.Int("max-inflight", 256, "serve: per-class concurrent-request cap; excess load is shed with 429 (negative disables)")
	rateLimit := fs.Float64("rate-limit", 0, "serve: token-bucket request rate in req/s; 0 disables rate limiting")
	peerName := fs.String("peer-name", "", "serve: this hub's stable cluster peer name (reported by /v1/_cluster/status and used for %peer fault targeting)")
	peersSpec := fs.String("peers", "", "cluster membership as comma-separated name=url pairs; push/pull route through the replicated cluster when set")
	replication := fs.Int("replication", 2, "cluster: replicas per content digest (capped at the peer count)")
	targetPeer := fs.String("peer", "", "cluster deliver: peer to stream journaled hints back to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := func() *hub.Client {
		return hub.NewClientWithOptions(*hubURL, hub.ClientOptions{
			Timeout: *timeout,
			Retry:   hub.RetryPolicy{MaxAttempts: *retries},
		})
	}
	clusterClient := func() (*cluster.Cluster, error) {
		peers, err := cluster.ParsePeers(*peersSpec)
		if err != nil {
			return nil, err
		}
		return cluster.New(cluster.Options{
			Peers:       peers,
			Replication: *replication,
			Client: hub.ClientOptions{
				Timeout: *timeout,
				Retry:   hub.RetryPolicy{MaxAttempts: *retries},
			},
		})
	}

	switch cmd {
	case "serve":
		store := hub.NewStore()
		if *statePath != "" {
			// Durable mode: every mutation is journaled (fsynced WAL)
			// before it is acknowledged, and recovery replays the journal
			// on top of the last snapshot — a crash or torn tail loses at
			// most the record being written.
			loaded, report, err := hub.OpenDurable(*statePath, hub.DurableOptions{})
			if err != nil {
				return err
			}
			store = loaded
			fmt.Printf("registry state: %s (%d collections, %d snapshot entries, %d journal records replayed)\n",
				*statePath, len(store.Collections()), report.SnapshotEntries, report.JournalRecords)
			if report.TornBytes > 0 {
				fmt.Printf("recovered from torn journal tail: %d bytes truncated\n", report.TornBytes)
			}
			if report.Quarantined > 0 {
				fmt.Printf("warning: %d entries quarantined during recovery (re-push to repair)\n", report.Quarantined)
			}
		}
		srv := hub.NewServer(store)
		// PeerName before EnableFaults: the fault plan is consulted on
		// this peer's behalf, so %peer spec clauses can target it.
		srv.PeerName = *peerName
		if *peerName != "" {
			fmt.Printf("cluster peer name: %s\n", *peerName)
		}
		if *faultSpec != "" {
			rules, err := faultinject.ParseSpec(*faultSpec)
			if err != nil {
				return err
			}
			srv.EnableFaults(faultinject.NewPlan(*faultSeed, rules...))
			fmt.Printf("fault injection enabled: %s (seed %d)\n", *faultSpec, *faultSeed)
		}
		if *autobuild {
			builder, err := core.New().NewHubBuilder()
			if err != nil {
				return err
			}
			srv.EnableAutoBuild(builder)
			fmt.Println("auto-build enabled (build host: " + builder.Host.Name + ")")
		}
		var reg *obs.Registry
		if *metricsAddr != "" {
			reg = obs.NewRegistry()
		}
		if *maxInflight > 0 || *rateLimit > 0 {
			srv.EnableAdmission(hub.AdmissionOptions{
				MaxInflightReads:  *maxInflight,
				MaxInflightWrites: *maxInflight,
				RatePerSec:        *rateLimit,
				Obs:               reg,
			})
		}
		if *metricsAddr != "" {
			// Enabled last so the middleware observes the fault injector,
			// admission control, and auto-build endpoints too.
			srv.EnableMetrics(reg)
		}
		if *scrubInterval > 0 {
			srv.EnableScrubbing(*scrubInterval, *scrubSeed)
			fmt.Printf("integrity scrubbing every ~%s (seed %d)\n", *scrubInterval, *scrubSeed)
		}
		bound, err := srv.Listen(*addr)
		if err != nil {
			return err
		}
		fmt.Printf("hub serving on http://%s\n", bound)
		if *metricsAddr != "" {
			mln, err := net.Listen("tcp", *metricsAddr)
			if err != nil {
				return err
			}
			go http.Serve(mln, srv.MetricsHandler(*pprofOn))
			fmt.Printf("metrics on http://%s/metrics (pprof: %v)\n", mln.Addr(), *pprofOn)
		}
		// SIGINT or SIGTERM begins a graceful shutdown; a second signal
		// force-aborts the process (exit 128+signum) via sigctx.
		ctx, stopSignals := sigctx.WithSignals(context.Background())
		defer stopSignals()
		<-ctx.Done()
		fmt.Printf("shutting down: draining in-flight requests for up to %s (second signal aborts immediately)\n", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "schub: drain incomplete, in-flight requests aborted:", err)
		}
		if *statePath != "" {
			// Close flushes the journal and completes a final compaction,
			// so the next open replays nothing.
			if err := store.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "schub: saving state:", err)
			} else {
				fmt.Printf("registry state saved to %s\n", *statePath)
			}
		}
		return nil
	case "push":
		if *imagePath == "" {
			return fmt.Errorf("-image is required")
		}
		blob, err := os.ReadFile(*imagePath)
		if err != nil {
			return err
		}
		img, err := image.Unmarshal(blob)
		if err != nil {
			return err
		}
		if *peersSpec != "" {
			cl, err := clusterClient()
			if err != nil {
				return err
			}
			d, err := cl.Push(*collection, img)
			if err != nil {
				return err
			}
			fmt.Printf("pushed %s to %d of %d peers (R=%d)\ndigest: %s\n",
				img.Ref(), cl.Replication(), len(cl.PeerNames()), cl.Replication(), d)
			return nil
		}
		c := client()
		d, err := c.Push(*collection, img)
		if err != nil {
			return err
		}
		fmt.Printf("pushed %s to %s/%s\ndigest: %s\n", img.Ref(), *hubURL, *collection, d)
		fmt.Printf("layers transferred: %d of %d (rest already on the hub)\n",
			len(c.AttemptsMatching("pushlayer ")), len(img.Layers))
		return nil
	case "pull":
		if *name == "" {
			return fmt.Errorf("-name is required")
		}
		target := *out
		if target == "" {
			target = *name + ".scif"
		}
		if *peersSpec != "" {
			cl, err := clusterClient()
			if err != nil {
				return err
			}
			img, d, err := cl.Pull(*collection, *name, *tag, *digest)
			if err != nil {
				return err
			}
			blob, err := img.MarshalLayered()
			if err != nil {
				return err
			}
			if err := os.WriteFile(target, blob, 0o644); err != nil {
				return err
			}
			fmt.Printf("pulled %s:%s (digest %s) to %s\n", *name, *tag, d, target)
			return nil
		}
		// PullToFile spools verified chunks next to the target, so an
		// interrupted pull resumes from the last good offset on rerun.
		d, err := client().PullToFile(*collection, *name, *tag, *digest, target)
		if err != nil {
			return err
		}
		fmt.Printf("pulled %s:%s (digest %s) to %s\n", *name, *tag, d, target)
		return nil
	case "build":
		if *recipePath == "" || *name == "" {
			return fmt.Errorf("-recipe and -name are required")
		}
		src, err := os.ReadFile(*recipePath)
		if err != nil {
			return err
		}
		d, err := client().RemoteBuild(*collection, *name, *tag, string(src))
		if err != nil {
			return err
		}
		fmt.Printf("hub built %s:%s from %s\ndigest: %s\n", *name, *tag, *recipePath, d)
		return nil
	case "list":
		c := client()
		entries, err := c.List(*collection)
		if err != nil {
			return err
		}
		fmt.Printf("collection %s:\n", *collection)
		for _, e := range entries {
			fmt.Printf("  %s:%s  %s  %d bytes  %d layers  (built on %s)\n", e.Container, e.Tag, e.Digest[:19], e.Size, e.Layers, e.BuildHost)
		}
		return nil
	case "cluster":
		cl, err := clusterClient()
		if err != nil {
			return err
		}
		switch sub {
		case "status":
			fmt.Printf("cluster of %d peers, replication %d:\n", len(cl.PeerNames()), cl.Replication())
			for _, st := range cl.ProbeOnce() {
				if !st.Up {
					fmt.Printf("  %-12s DOWN  %s  (%s)\n", st.Peer.Name, st.Peer.URL, st.Err)
					continue
				}
				durable := ""
				if st.Node.Durable {
					durable = "  durable"
				}
				fmt.Printf("  %-12s up    %s  %d entries, %d layers, %d hints, %d quarantined%s\n",
					st.Peer.Name, st.Peer.URL, st.Node.Entries, st.Node.Layers,
					st.Node.Hints, st.Node.Quarantined, durable)
			}
			return nil
		case "rebalance":
			rep := cl.RebalanceOnce()
			fmt.Printf("rebalance: %d refs, %d transferred, %d already placed, %d failed\n",
				rep.Refs, rep.Transferred, rep.Skipped, rep.Failed)
			if rep.Failed > 0 {
				return fmt.Errorf("%d placements failed; rerun after the affected peers recover", rep.Failed)
			}
			return nil
		case "deliver":
			if *targetPeer == "" {
				return fmt.Errorf("-peer is required (the rejoined peer to stream hints to)")
			}
			rep, err := cl.DeliverHints(*targetPeer)
			if err != nil {
				return err
			}
			fmt.Printf("handoff to %s: %d hints, %d delivered, %d acked, %d failed\n",
				*targetPeer, rep.Hints, rep.Delivered, rep.Acked, rep.Failed)
			if rep.Failed > 0 {
				return fmt.Errorf("%d hints undeliverable; they stay journaled for the next drive", rep.Failed)
			}
			return nil
		default:
			return fmt.Errorf("unknown cluster subcommand %q (want status, rebalance, or deliver)", sub)
		}
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}
