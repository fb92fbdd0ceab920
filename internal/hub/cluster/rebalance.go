package cluster

import (
	"fmt"
	"sort"

	"repro/internal/image"
	"repro/internal/obs"
)

// Recovery drives: DeliverHints streams handed-off writes back to a
// rejoined peer, RebalanceOnce restores full replication after any
// membership change. Both reuse the layered transfer path, so a peer
// that already holds most of an image's layers receives only the delta
// (layer negotiation, PR 8) and interrupted streams resume from their
// last verified chunk (Range pulls, PR 6).

// HandoffReport summarizes one DeliverHints drive.
type HandoffReport struct {
	Hints     int // hints found across the cluster for the target
	Delivered int // images streamed onto the target
	Acked     int // hints retired from their holders' journals
	Failed    int // hints left in place for a later drive
}

// DeliverHints streams every journaled hint for target back onto it and
// retires the delivered hints. Holders are visited in configured peer
// order and each holder's hints in its own deterministic (sorted) order,
// so the delivery sequence is stable. Hints that cannot be delivered
// stay journaled for the next drive.
func (cl *Cluster) DeliverHints(target string) (HandoffReport, error) {
	var rep HandoffReport
	tp := cl.peer(target)
	if tp == nil {
		return rep, fmt.Errorf("cluster: unknown peer %q", target)
	}
	// The drive starts with a probe: delivering to a still-down peer
	// would burn every hint's transfer just to fail at the push.
	if _, err := tp.client.NodeStatus(); err != nil {
		cl.setUp(tp, false, "hint delivery probe failed: "+describeClass(err))
		return rep, fmt.Errorf("cluster: hint target %s unreachable: %s", target, describeClass(err))
	}
	cl.setUp(tp, true, "hint delivery probe ok")

	cl.pmu.Lock()
	holders := append([]*peer(nil), cl.peers...)
	cl.pmu.Unlock()
	for _, holder := range holders {
		if holder.name == target || !holder.isUp() {
			continue
		}
		hints, err := holder.client.Hints(target)
		if err != nil {
			if isDownError(err) {
				cl.setUp(holder, false, "hint listing failed: "+describeClass(err))
			}
			cl.logf("handoff to %s: listing hints on %s failed (%s)", target, holder.name, describeClass(err))
			continue
		}
		rep.Hints += len(hints)
		for _, h := range hints {
			rf := ref(h.Collection, h.Container, h.Tag)
			img, _, err := holder.client.Pull(h.Collection, h.Container, h.Tag, h.Digest)
			if err != nil {
				rep.Failed++
				cl.logf("handoff to %s: reading %s from %s failed (%s)", target, rf, holder.name, describeClass(err))
				continue
			}
			if _, err := tp.client.Push(h.Collection, img); err != nil {
				rep.Failed++
				if isDownError(err) {
					cl.setUp(tp, false, "hint delivery failed: "+describeClass(err))
				}
				cl.logf("handoff to %s: delivering %s failed (%s)", target, rf, describeClass(err))
				continue
			}
			rep.Delivered++
			cl.obs.Inc("hub_cluster_hints_delivered_total", obs.L("target", target))
			cl.logf("handoff to %s: delivered %s from %s", target, rf, holder.name)
			if acked, err := holder.client.AckHint(h); err != nil {
				cl.logf("handoff to %s: ack of %s on %s failed (%s)", target, rf, holder.name, describeClass(err))
			} else if acked {
				rep.Acked++
			}
		}
	}
	return rep, nil
}

// RebalanceReport summarizes one RebalanceOnce drive.
type RebalanceReport struct {
	Refs        int // distinct references catalogued across up peers
	Transferred int // (ref, owner) copies created
	Skipped     int // (ref, owner) pairs already in place
	Failed      int // (ref, owner) pairs that could not be restored
}

// RebalanceOnce restores the placement invariant after membership
// changes: every healthy reference ends up on all R rendezvous owners of
// its digest. The catalog is the union of every up peer's listings
// (quarantined entries excluded — the scrubber and read repair own
// those); on digest divergence between peers the copy on the earliest
// peer in configured order wins. Transfers go through the layered path,
// so established peers send only missing layers to the new owner.
func (cl *Cluster) RebalanceOnce() RebalanceReport {
	var rep RebalanceReport
	type refInfo struct {
		coll, name, tag, digest string
		holders                 map[string]bool
	}
	catalog := map[string]*refInfo{}
	var order []string

	cl.pmu.Lock()
	peers := append([]*peer(nil), cl.peers...)
	cl.pmu.Unlock()
	for _, p := range peers {
		if !p.isUp() {
			continue
		}
		colls, err := p.client.Collections()
		if err != nil {
			if isDownError(err) {
				cl.setUp(p, false, "catalog listing failed: "+describeClass(err))
			}
			cl.logf("rebalance: cataloguing %s failed (%s)", p.name, describeClass(err))
			continue
		}
		sort.Strings(colls)
		for _, coll := range colls {
			entries, err := p.client.List(coll)
			if err != nil {
				cl.logf("rebalance: listing %s on %s failed (%s)", coll, p.name, describeClass(err))
				continue
			}
			for _, e := range entries {
				if e.Quarantined {
					continue
				}
				rf := ref(coll, e.Container, e.Tag)
				ri, ok := catalog[rf]
				if !ok {
					ri = &refInfo{coll: coll, name: e.Container, tag: e.Tag, digest: e.Digest,
						holders: map[string]bool{}}
					catalog[rf] = ri
					order = append(order, rf)
				}
				// First holder in configured order wins on divergence; a
				// stale copy elsewhere is not a holder of the winning digest.
				if ri.digest == e.Digest {
					ri.holders[p.name] = true
				} else {
					cl.logf("rebalance: %s digest diverges on %s (keeping %s's copy)", rf, p.name, firstHolder(ri.holders, peers))
				}
			}
		}
	}
	rep.Refs = len(order)

	for _, rf := range order {
		ri := catalog[rf]
		for _, o := range cl.owners(ri.digest) {
			if ri.holders[o] {
				rep.Skipped++
				continue
			}
			p := cl.peer(o)
			if p == nil || !p.isUp() {
				rep.Failed++
				cl.logf("rebalance: owner %s of %s is down, leaving for next drive", o, rf)
				continue
			}
			img, err := cl.pullFromHolder(ri.coll, ri.name, ri.tag, ri.digest, ri.holders, peers)
			if err != nil {
				rep.Failed++
				cl.logf("rebalance: no holder could serve %s (%s)", rf, describeClass(err))
				continue
			}
			if _, err := p.client.Push(ri.coll, img); err != nil {
				rep.Failed++
				if isDownError(err) {
					cl.setUp(p, false, "rebalance push failed: "+describeClass(err))
				}
				cl.logf("rebalance: placing %s on %s failed (%s)", rf, o, describeClass(err))
				continue
			}
			ri.holders[o] = true
			rep.Transferred++
			cl.obs.Inc("hub_cluster_rebalance_transfers_total", obs.L("peer", o))
			cl.logf("rebalance: placed %s on %s", rf, o)
		}
	}
	return rep
}

// pullFromHolder reads one reference from the first up holder in
// configured peer order.
func (cl *Cluster) pullFromHolder(coll, name, tag, digest string, holders map[string]bool, peers []*peer) (img *image.Image, err error) {
	err = fmt.Errorf("no up holder")
	for _, p := range peers {
		if !holders[p.name] || !p.isUp() {
			continue
		}
		var pulled *image.Image
		pulled, _, err = p.client.Pull(coll, name, tag, digest)
		if err == nil {
			return pulled, nil
		}
		if isDownError(err) {
			cl.setUp(p, false, "rebalance read failed: "+describeClass(err))
		}
	}
	return nil, err
}

// firstHolder names the earliest holder in configured peer order (for
// the divergence log line).
func firstHolder(holders map[string]bool, peers []*peer) string {
	for _, p := range peers {
		if holders[p.name] {
			return p.name
		}
	}
	return "?"
}
