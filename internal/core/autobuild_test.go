package core

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/hub"
	"repro/internal/recipestore"
)

func TestRecipeStoreToHubPipeline(t *testing.T) {
	// The full provenance chain: commit recipes to the version store, ask
	// the hub to build a specific commit, pull the result, and check the
	// stored recipe source matches the committed one.
	fw := New()
	store := recipestore.NewStore()
	commit, err := fw.CommitRecipes(store, "wss2", "initial import of PEPA tool recipes")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := store.Paths(commit.Hash); len(got) != 3 {
		t.Fatalf("committed paths = %v", got)
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

	digest, err := fw.PublishFromStore(client, store, commit.Hash, ToolPEPA, "v1")
	if err != nil {
		t.Fatal(err)
	}
	img, _, err := client.Pull(fw.Collection, "pepa", "v1", digest)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := store.Checkout(commit.Hash, "pepa/Singularity")
	if err != nil {
		t.Fatal(err)
	}
	if img.Meta.RecipeSource != committed {
		t.Error("published image's recipe provenance does not match the committed recipe")
	}
	// Hub-built images must be digest-identical to locally built ones:
	// same recipe, same base, same engine.
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

func TestRecipeHistoryRebuildsOldVersion(t *testing.T) {
	// Edit a recipe, then rebuild the *old* commit and confirm it differs
	// from the new one — replication of past results from history.
	fw := New()
	store := recipestore.NewStore()
	c1, err := fw.CommitRecipes(store, "wss2", "v1")
	if err != nil {
		t.Fatal(err)
	}
	oldSrc, _ := store.Checkout(c1.Hash, "pepa/Singularity")
	newSrc := oldSrc + "\n%labels\n    Revision two\n"
	c2, err := store.Commit("wss2", "bump labels", map[string]string{"pepa/Singularity": newSrc})
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

	d1, err := fw.PublishFromStore(client, store, c1.Hash, ToolPEPA, "old")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := fw.PublishFromStore(client, store, c2.Hash, ToolPEPA, "new")
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Error("different recipe revisions produced identical digests")
	}
	// Rebuilding the old commit again reproduces its digest exactly.
	d1again, err := fw.PublishFromStore(client, store, c1.Hash, ToolPEPA, "old-rebuild")
	if err != nil {
		t.Fatal(err)
	}
	if d1again == d1 {
		// Tags differ ("old" vs "old-rebuild") and the digest covers the
		// tag, so equality would actually be a bug.
		t.Error("digest ignored the tag")
	}
	if err := store.Verify(); err != nil {
		t.Errorf("store integrity: %v", err)
	}
}

// TestPublishFromStoreShortPrefix: the store accepts any unambiguous
// commit prefix, so a failed remote build names the commit as the caller
// did instead of slicing a string that may be shorter than 12 digits.
func TestPublishFromStoreShortPrefix(t *testing.T) {
	fw := New()
	store := recipestore.NewStore()
	commit, err := fw.CommitRecipes(store, "wss2", "initial import of PEPA tool recipes")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(hub.NewServer(hub.NewStore()).Handler()) // no auto-build
	defer ts.Close()
	_, err = fw.PublishFromStore(hub.NewClient(ts.URL), store, commit.Hash[:8], ToolPEPA, "v1")
	if err == nil {
		t.Fatal("remote build succeeded on a hub without auto-build")
	}
	if want := "remote build of pepa@" + commit.Hash[:8] + ":"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}
