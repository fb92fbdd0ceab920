package hub

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
)

// Hinted handoff: when a clustered write cannot reach one of its owners,
// the fallback peer that accepted the bytes also journals a Hint — a
// small metadata record naming the down owner and the entry it is owed.
// Hints are durable registry state (journaled like puts, folded into
// hints.json at compaction) so an acknowledged write survives the
// fallback peer restarting before the owner recovers. When the owner
// comes back, the cluster layer streams each hinted entry over (layer
// negotiation keeps the transfer incremental) and acks the hint, which
// removes it — again through the journal.
//
// Server endpoints (under the /v1/_cluster/ prefix):
//
//	POST /v1/_cluster/hints        store one hint        -> {"stored":true}
//	GET  /v1/_cluster/hints?target=NAME   list hints owed to NAME
//	POST /v1/_cluster/hints/ack    remove one delivered hint -> {"acked":bool}
//	GET  /v1/_cluster/status       this peer's replica summary

// Hint records one write owed to a down peer.
type Hint struct {
	// Target is the peer name the write is owed to (never an address).
	Target     string `json:"target"`
	Collection string `json:"collection"`
	Container  string `json:"container"`
	Tag        string `json:"tag"`
	// Digest pins which content version the hint covers; a newer write to
	// the same ref replaces it.
	Digest string `json:"digest"`
}

// hintKey identifies the slot a hint occupies: one per (target, ref),
// with a newer digest replacing an older one.
func (h Hint) hintKey() string { return h.Target + "|" + key(h.Collection, h.Container, h.Tag) }

func (h Hint) validate() error {
	if h.Target == "" || h.Collection == "" || h.Container == "" || h.Tag == "" || h.Digest == "" {
		return fmt.Errorf("hub: incomplete hint (target %q, ref %s/%s:%s, digest %q)",
			h.Target, h.Collection, h.Container, h.Tag, h.Digest)
	}
	return nil
}

// AddHint journals and stores one hinted-handoff record. Re-adding the
// same (target, ref, digest) is a no-op; a different digest for the same
// slot replaces the stale hint (the newer write supersedes it).
func (s *Store) AddHint(h Hint) error {
	if err := h.validate(); err != nil {
		return err
	}
	s.pmu.Lock()
	defer s.pmu.Unlock()
	s.mu.RLock()
	existing, ok := s.hints[h.hintKey()]
	s.mu.RUnlock()
	if ok && existing.Digest == h.Digest {
		return nil
	}
	if s.wal != nil {
		if err := s.wal.appendHint(walHintAdd, h); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.hints[h.hintKey()] = h
	s.mu.Unlock()
	return nil
}

// AckHint removes one delivered hint, journaling the removal. It reports
// whether a hint was actually removed: an ack whose digest no longer
// matches the stored hint (a newer write arrived while the delivery was
// in flight) leaves the newer hint in place.
func (s *Store) AckHint(h Hint) (bool, error) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	s.mu.RLock()
	existing, ok := s.hints[h.hintKey()]
	s.mu.RUnlock()
	if !ok {
		return false, nil
	}
	if h.Digest != "" && existing.Digest != h.Digest {
		return false, nil
	}
	if s.wal != nil {
		if err := s.wal.appendHint(walHintAck, existing); err != nil {
			return false, err
		}
	}
	s.mu.Lock()
	delete(s.hints, existing.hintKey())
	s.mu.Unlock()
	return true, nil
}

// Hints returns the stored hints owed to target (all hints when target
// is empty), in deterministic order.
func (s *Store) Hints(target string) []Hint {
	s.mu.RLock()
	out := make([]Hint, 0, len(s.hints))
	for _, h := range s.hints {
		if target == "" || h.Target == target {
			out = append(out, h)
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].hintKey() < out[j].hintKey() })
	return out
}

// HintCount returns the number of stored hints.
func (s *Store) HintCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.hints)
}

// EntryCount returns the number of stored entries across all collections.
func (s *Store) EntryCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// QuarantinedCount returns the number of quarantined entries.
func (s *Store) QuarantinedCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, r := range s.entries {
		if r.reason != "" {
			n++
		}
	}
	return n
}

// NodeStatus is one peer's replica summary (GET /v1/_cluster/status).
type NodeStatus struct {
	Peer        string `json:"peer,omitempty"` // the server's configured peer name
	Entries     int    `json:"entries"`
	Layers      int    `json:"layers"`
	Hints       int    `json:"hints"`
	Quarantined int    `json:"quarantined"`
	Durable     bool   `json:"durable"`
}

// handleCluster routes /v1/_cluster/{hints[,ack],status}.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request, parts []string) {
	switch {
	case len(parts) == 2 && parts[1] == "status":
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, NodeStatus{
			Peer:        s.PeerName,
			Entries:     s.Store.EntryCount(),
			Layers:      s.Store.LayerCount(),
			Hints:       s.Store.HintCount(),
			Quarantined: s.Store.QuarantinedCount(),
			Durable:     s.Store.Durable(),
		})
	case len(parts) == 2 && parts[1] == "hints":
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, map[string][]Hint{"hints": s.Store.Hints(r.URL.Query().Get("target"))})
		case http.MethodPost, http.MethodPut:
			var h Hint
			if !decodeHintBody(w, r, s.MaxUploadBytes, &h) {
				return
			}
			if err := s.Store.AddHint(h); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			writeJSON(w, map[string]bool{"stored": true})
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	case len(parts) == 3 && parts[1] == "hints" && parts[2] == "ack":
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var h Hint
		if !decodeHintBody(w, r, s.MaxUploadBytes, &h) {
			return
		}
		acked, err := s.Store.AckHint(h)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]bool{"acked": acked})
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// decodeHintBody reads and parses a hint request body, answering 4xx
// itself on failure.
func decodeHintBody(w http.ResponseWriter, r *http.Request, maxBytes int64, h *Hint) bool {
	body, err := readBody(w, r, maxBytes)
	if err != nil {
		return false
	}
	if err := json.Unmarshal(body, h); err != nil {
		http.Error(w, "bad hint: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// --- client side ---

// AddHint stores a hinted-handoff record on the hub the client points at.
func (c *Client) AddHint(h Hint) error {
	body, err := json.Marshal(h)
	if err != nil {
		return err
	}
	op := fmt.Sprintf("hint %s %s/%s:%s", h.Target, h.Collection, h.Container, h.Tag)
	return c.do(op, func() (*http.Request, error) {
		return http.NewRequest(http.MethodPost, c.baseURL+"/v1/_cluster/hints", bytes.NewReader(body))
	}, func(resp *http.Response) error {
		var out struct {
			Stored bool `json:"stored"`
		}
		if err := jsonDecode(io.LimitReader(resp.Body, c.MaxResponseBytes), &out); err != nil {
			return fmt.Errorf("%w: decoding hint response: %v", ErrCorrupt, err)
		}
		if !out.Stored {
			return fmt.Errorf("%w: hint not acknowledged as stored", ErrCorrupt)
		}
		return nil
	})
}

// Hints lists the hints the hub holds for target (all when empty).
func (c *Client) Hints(target string) ([]Hint, error) {
	url := c.baseURL + "/v1/_cluster/hints"
	if target != "" {
		url += "?target=" + target
	}
	var out struct {
		Hints []Hint `json:"hints"`
	}
	err := c.do("hints "+target, func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, url, nil)
	}, func(resp *http.Response) error {
		if err := jsonDecode(io.LimitReader(resp.Body, c.MaxResponseBytes), &out); err != nil {
			return fmt.Errorf("%w: decoding hints response: %v", ErrCorrupt, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out.Hints, nil
}

// AckHint removes one delivered hint from the hub the client points at,
// reporting whether the hub actually dropped it.
func (c *Client) AckHint(h Hint) (bool, error) {
	body, err := json.Marshal(h)
	if err != nil {
		return false, err
	}
	var out struct {
		Acked bool `json:"acked"`
	}
	op := fmt.Sprintf("ackhint %s %s/%s:%s", h.Target, h.Collection, h.Container, h.Tag)
	err = c.do(op, func() (*http.Request, error) {
		return http.NewRequest(http.MethodPost, c.baseURL+"/v1/_cluster/hints/ack", bytes.NewReader(body))
	}, func(resp *http.Response) error {
		if err := jsonDecode(io.LimitReader(resp.Body, c.MaxResponseBytes), &out); err != nil {
			return fmt.Errorf("%w: decoding ack response: %v", ErrCorrupt, err)
		}
		return nil
	})
	return out.Acked, err
}

// NodeStatus fetches the hub's replica summary.
func (c *Client) NodeStatus() (NodeStatus, error) {
	var out NodeStatus
	err := c.do("status", func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, c.baseURL+"/v1/_cluster/status", nil)
	}, func(resp *http.Response) error {
		if err := jsonDecode(io.LimitReader(resp.Body, c.MaxResponseBytes), &out); err != nil {
			return fmt.Errorf("%w: decoding status response: %v", ErrCorrupt, err)
		}
		return nil
	})
	return out, err
}
