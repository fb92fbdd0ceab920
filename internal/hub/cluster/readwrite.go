package cluster

import (
	"errors"
	"fmt"

	"repro/internal/hub"
	"repro/internal/image"
	"repro/internal/obs"
)

// Write and read routing. A push fans out to the R rendezvous owners of
// the content digest; owners that are down (or shedding load) degrade to
// hinted handoff — the bytes and a journaled hint land on the next up
// peer in hash order, to be streamed back on recovery. A pull walks the
// owners in hash order with per-peer failover, and a replica that turns
// out to be missing or quarantined while a sibling still serves the
// content is repaired in place with a digest-verified layered re-push.
// Every cluster write — fan-out, handoff, hint delivery, rebalance and
// repair — uses the same layer-negotiated protocol.

// isDownError reports whether err means the peer itself is unreachable
// (transport-level weather or an open breaker) as opposed to a coherent
// HTTP answer from a live process.
func isDownError(err error) bool {
	var he *hub.HTTPError
	if errors.As(err, &he) {
		return false
	}
	if errors.Is(err, hub.ErrQuarantined) {
		return false
	}
	return hub.Classify(err) == hub.ClassTransient
}

// isMissing reports whether err means the peer is alive but has no
// healthy copy of the content: a 404, or a copy quarantined by the
// integrity scrubber. These replicas are read-repair candidates.
func isMissing(err error) bool {
	if errors.Is(err, hub.ErrQuarantined) {
		return true
	}
	var he *hub.HTTPError
	return errors.As(err, &he) && he.Status == 404
}

func ref(coll, name, tag string) string { return coll + "/" + name + ":" + tag }

// Push replicates an image onto the R owners of its content digest,
// acknowledging only once every owner either holds the bytes or is
// covered by a journaled hint on a reachable fallback peer — the
// zero-lost-acknowledged-writes contract.
func (cl *Cluster) Push(coll string, img *image.Image) (string, error) {
	digest, err := img.Digest()
	if err != nil {
		return "", err
	}
	rf := ref(coll, img.Meta.Name, img.Meta.Tag)
	ranked := cl.rank(digest)
	owners := ranked
	if cl.r < len(ranked) {
		owners = ranked[:cl.r]
	}
	written := map[string]bool{}
	var deferred []string // owners needing hinted handoff
	for _, o := range owners {
		p := cl.peer(o)
		if p == nil {
			continue
		}
		if !p.isUp() {
			cl.logf("push %s: owner %s down, handing off", rf, o)
			deferred = append(deferred, o)
			continue
		}
		if _, err := p.client.Push(coll, img); err != nil {
			cl.obs.Inc("hub_cluster_replica_writes_total", obs.L("peer", o), obs.L("outcome", "error"))
			if hub.Classify(err) == hub.ClassDeterministic {
				// A coherent rejection (malformed image, oversized upload)
				// dooms the write on every replica identically.
				return "", fmt.Errorf("cluster: push %s via %s: %w", rf, o, err)
			}
			if isDownError(err) {
				cl.setUp(p, false, "push failed: "+describeClass(err))
			}
			cl.logf("push %s: owner %s failed (%s), handing off", rf, o, describeClass(err))
			deferred = append(deferred, o)
			continue
		}
		written[o] = true
		cl.obs.Inc("hub_cluster_replica_writes_total", obs.L("peer", o), obs.L("outcome", "ok"))
		cl.logf("push %s: replica %s ok", rf, o)
	}
	for _, o := range deferred {
		if err := cl.handoff(ranked, o, coll, img, digest, written); err != nil {
			return "", err
		}
	}
	if len(written) == 0 {
		return "", fmt.Errorf("cluster: push %s: no replica accepted the write", rf)
	}
	return digest, nil
}

// handoff covers one down owner: the next up peer in hash order after it
// (wrapping) takes the bytes plus a journaled hint naming the owner.
// When R equals the cluster size the fallback is another owner that
// already holds the content, and only the hint is new state.
func (cl *Cluster) handoff(ranked []string, owner, coll string, img *image.Image, digest string, written map[string]bool) error {
	rf := ref(coll, img.Meta.Name, img.Meta.Tag)
	idx := 0
	for i, n := range ranked {
		if n == owner {
			idx = i
			break
		}
	}
	for i := 1; i < len(ranked); i++ {
		cand := ranked[(idx+i)%len(ranked)]
		p := cl.peer(cand)
		if p == nil || !p.isUp() {
			continue
		}
		if !written[cand] {
			if _, err := p.client.Push(coll, img); err != nil {
				if isDownError(err) {
					cl.setUp(p, false, "handoff push failed: "+describeClass(err))
				}
				cl.logf("push %s: fallback %s failed (%s), trying next", rf, cand, describeClass(err))
				continue
			}
			written[cand] = true
		}
		h := hub.Hint{Target: owner, Collection: coll, Container: img.Meta.Name, Tag: img.Meta.Tag, Digest: digest}
		if err := p.client.AddHint(h); err != nil {
			if isDownError(err) {
				cl.setUp(p, false, "hint journal failed: "+describeClass(err))
			}
			cl.logf("push %s: hint on %s failed (%s), trying next", rf, cand, describeClass(err))
			continue
		}
		cl.obs.Inc("hub_cluster_handoffs_total", obs.L("peer", cand), obs.L("target", owner))
		cl.logf("push %s: hint for %s journaled on %s", rf, owner, cand)
		return nil
	}
	return fmt.Errorf("cluster: push %s: owner %s is down and no fallback peer is reachable", rf, owner)
}

// Pull fetches an image with per-peer failover: owners in hash order
// when the digest is known (any peer can hold a handed-off copy, so the
// walk continues past the owners), configured order otherwise. A replica
// that answers "no healthy copy" while a later one serves the content is
// read-repaired with a digest-verified re-push before returning.
func (cl *Cluster) Pull(coll, name, tag, expectedDigest string) (*image.Image, string, error) {
	rf := ref(coll, name, tag)
	var order []string
	if expectedDigest != "" {
		order = cl.rank(expectedDigest)
	} else {
		order = cl.names
	}
	var absent []string
	for _, pn := range order {
		p := cl.peer(pn)
		if p == nil {
			continue
		}
		if !p.isUp() {
			cl.logf("pull %s: skipping %s (down)", rf, pn)
			continue
		}
		img, digest, err := p.client.Pull(coll, name, tag, expectedDigest)
		if err == nil {
			cl.logf("pull %s: served by %s", rf, pn)
			cl.readRepair(coll, img, digest, absent)
			return img, digest, nil
		}
		cl.obs.Inc("hub_cluster_read_failovers_total", obs.L("peer", pn))
		switch {
		case isMissing(err):
			absent = append(absent, pn)
			cl.logf("pull %s: %s has no healthy copy (%s), failing over", rf, pn, describeClass(err))
		case isDownError(err):
			cl.setUp(p, false, "pull failed: "+describeClass(err))
			cl.logf("pull %s: %s unreachable (%s), failing over", rf, pn, describeClass(err))
		default:
			cl.logf("pull %s: %s failed (%s), failing over", rf, pn, describeClass(err))
		}
	}
	return nil, "", fmt.Errorf("cluster: pull %s: no replica could serve it", rf)
}

// readRepair re-pushes just-pulled content onto owner replicas that
// answered 404 or quarantined during the failover walk. Only layers the
// replica lacks cross the wire; its scrubber has already dropped any
// rotted layer frames, so the manifest commit reassembles intact bytes,
// and the commit's Put force-overwrites a quarantined entry's on-disk
// blob and digest-verifies the result, so a repaired replica is
// byte-healthy.
func (cl *Cluster) readRepair(coll string, img *image.Image, digest string, absent []string) {
	if len(absent) == 0 {
		return
	}
	owners := cl.owners(digest)
	isOwner := map[string]bool{}
	for _, o := range owners {
		isOwner[o] = true
	}
	rf := ref(coll, img.Meta.Name, img.Meta.Tag)
	for _, pn := range absent {
		if !isOwner[pn] {
			continue
		}
		p := cl.peer(pn)
		if p == nil || !p.isUp() {
			continue
		}
		if _, err := p.client.Push(coll, img); err != nil {
			cl.obs.Inc("hub_cluster_read_repairs_total", obs.L("peer", pn), obs.L("outcome", "error"))
			cl.logf("read-repair %s on %s: failed (%s)", rf, pn, describeClass(err))
			if isDownError(err) {
				cl.setUp(p, false, "read-repair failed: "+describeClass(err))
			}
			continue
		}
		cl.obs.Inc("hub_cluster_read_repairs_total", obs.L("peer", pn), obs.L("outcome", "ok"))
		cl.logf("read-repair %s on %s: ok", rf, pn)
	}
}
