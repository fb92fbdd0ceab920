package core

import (
	"net/http/httptest"
	"testing"

	"repro/internal/hub"
)

// TestRemoteBuildMatchesLocalBuild: a recipe submitted to an
// auto-building hub (the path `schub build` takes) is published with that
// recipe as its provenance, and the hub's build is digest-identical to a
// local build: same recipe, same base, same engine.
func TestRemoteBuildMatchesLocalBuild(t *testing.T) {
	fw := New()
	rcp, err := Recipe(ToolPEPA)
	if err != nil {
		t.Fatal(err)
	}
	builder, err := fw.NewHubBuilder()
	if err != nil {
		t.Fatal(err)
	}
	srv := hub.NewServer(hub.NewStore())
	srv.EnableAutoBuild(builder)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := hub.NewClient(ts.URL)

	digest, err := client.RemoteBuild(fw.Collection, string(ToolPEPA), "v1", rcp.Source)
	if err != nil {
		t.Fatal(err)
	}
	img, _, err := client.Pull(fw.Collection, "pepa", "v1", digest)
	if err != nil {
		t.Fatal(err)
	}
	if img.Meta.RecipeSource != rcp.Source {
		t.Error("published image's recipe provenance does not match the submitted recipe")
	}
	local, err := fw.Build(ToolPEPA, builder.Host)
	if err != nil {
		t.Fatal(err)
	}
	localImg := local.Image
	localImg.Meta.Tag = "v1" // tag differs; digest covers it
	d2, err := localImg.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d2 != digest {
		t.Errorf("hub build digest %s != local build digest %s", digest, d2)
	}
}
