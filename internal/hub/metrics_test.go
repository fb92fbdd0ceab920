package hub

import (
	"io"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// promLine matches one Prometheus text-format sample:
// name{labels} value  — with the label block optional.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="(\\.|[^"\\])*"(,[a-zA-Z0-9_]+="(\\.|[^"\\])*")*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// TestServerMetricsEndpoint drives real registry traffic through an
// instrumented server and asserts the /metrics sidecar serves parseable
// Prometheus text covering it.
func TestServerMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(NewStore())
	srv.EnableMetrics(reg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := NewClient(ts.URL)
	img := testImage("pepa", "latest", "payload")
	if _, err := client.Push("coll", img); err != nil {
		t.Fatal(err)
	}
	// A fresh client has no cached layers, so its pull reads the layer
	// over the wire too.
	if _, _, err := NewClient(ts.URL).Pull("coll", "pepa", "latest", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := client.List("coll"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.NodeStatus(); err != nil {
		t.Fatal(err)
	}

	ms := httptest.NewServer(srv.MetricsHandler(false))
	defer ms.Close()
	resp, err := ms.Client().Get(ms.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q, want Prometheus text 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "hub_server_requests_total") {
		t.Error("missing hub_server_requests_total family")
	}
	for _, ep := range []string{
		"POST /v1/_layers/missing",
		"PUT /v1/_layers/{digest}",
		"PUT /v1/{collection}/{container}/{tag}/manifest",
		"GET /v1/{collection}/{container}/{tag}/manifest",
		"GET /v1/_layers/{digest}",
		"GET /v1/{collection}",
		"GET /v1/_cluster/status",
	} {
		if !strings.Contains(text, `endpoint="`+ep+`"`) {
			t.Errorf("missing collapsed endpoint label %q", ep)
		}
	}
	if strings.Contains(text, ` other"`) {
		t.Errorf("image transfer traffic fell into the \"other\" endpoint class:\n%s", text)
	}
	samples := 0
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("unparseable sample line: %q", line)
		}
		samples++
	}
	if samples == 0 {
		t.Error("no samples in /metrics output")
	}

	// pprof must stay off unless requested.
	resp2, err := ms.Client().Get(ms.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == 200 {
		t.Error("pprof served without withPprof")
	}
}
