package hub

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/image"
)

// Builder turns a recipe source into an image. The hub uses it to offer
// Singularity-Hub's actual operating model: users push *recipes* (kept in
// version control) and the hub builds the containers itself, so the
// published image provably corresponds to the published recipe.
type Builder interface {
	BuildFromRecipe(recipeSrc, name, tag string) (*image.Image, error)
}

// EnableAutoBuild installs a builder and the POST /v1/build/... endpoint.
// Must be called before Listen/Handler use.
func (s *Server) EnableAutoBuild(b Builder) {
	s.builder = b
	s.mux.HandleFunc("/v1/build/", s.handleBuild)
}

// handleBuild serves POST /v1/build/{collection}/{container}/{tag} with the
// recipe source as the request body.
func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	if s.builder == nil {
		http.Error(w, "auto-build not enabled", http.StatusNotImplemented)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	parts := strings.Split(strings.Trim(strings.TrimPrefix(r.URL.Path, "/v1/build/"), "/"), "/")
	if len(parts) != 3 {
		http.Error(w, "want /v1/build/{collection}/{container}/{tag}", http.StatusBadRequest)
		return
	}
	coll, name, tag := parts[0], parts[1], parts[2]
	// Recipes are text; a generous 1 MiB cap rejects runaway uploads.
	recipeSrc, err := readBody(w, r, 1<<20)
	if err != nil {
		return
	}
	if len(recipeSrc) == 0 {
		http.Error(w, "empty recipe", http.StatusBadRequest)
		return
	}
	img, err := s.builder.BuildFromRecipe(string(recipeSrc), name, tag)
	if err != nil {
		http.Error(w, fmt.Sprintf("build failed: %v", err), http.StatusUnprocessableEntity)
		return
	}
	blob, err := img.MarshalLayered()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	digest, err := s.Store.Put(coll, name, tag, blob)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]string{"digest": digest})
}

// RemoteBuild asks the hub to build a recipe server-side and returns the
// digest of the stored image. Builds are content-addressed and therefore
// idempotent, so transient failures retry safely.
func (c *Client) RemoteBuild(coll, name, tag, recipeSrc string) (string, error) {
	op := fmt.Sprintf("build %s/%s:%s", coll, name, tag)
	url := fmt.Sprintf("%s/v1/build/%s/%s/%s", c.BaseURL, coll, name, tag)
	var digest string
	err := c.do(op, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(recipeSrc))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "text/plain")
		return req, nil
	}, func(resp *http.Response) error {
		var out struct {
			Digest string `json:"digest"`
		}
		if err := jsonDecode(io.LimitReader(resp.Body, c.MaxResponseBytes), &out); err != nil {
			return fmt.Errorf("%w: decoding build response: %v", ErrCorrupt, err)
		}
		digest = out.Digest
		return nil
	})
	if err != nil {
		return "", err
	}
	return digest, nil
}
