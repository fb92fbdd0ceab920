package recipe

import (
	"slices"
	"strings"
	"testing"
)

const pepaRecipe = `Bootstrap: library
From: centos:7.4

%help
    Containerized PEPA Eclipse plug-in.
    Run with a model file bound into /data.

%labels
    Maintainer wss2
    Version 1.5.0

%environment
    export LC_ALL=C
    export PEPA_HOME=/opt/eclipse

%files
    models/test.pepa /opt/models/test.pepa

%post
    pkg install pepa-eclipse-plugin
    mkdir -p /data

%runscript
    /opt/pepa/bin/pepa $ARG1

%test
    test -e /opt/eclipse/plugins/pepa.jar
`

func TestParseFullRecipe(t *testing.T) {
	r, err := Parse(pepaRecipe)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bootstrap != "library" || r.From != "centos:7.4" {
		t.Errorf("header = %q/%q", r.Bootstrap, r.From)
	}
	if !strings.Contains(r.Help, "Containerized PEPA") {
		t.Errorf("help = %q", r.Help)
	}
	if r.Labels["Maintainer"] != "wss2" || r.Labels["Version"] != "1.5.0" {
		t.Errorf("labels = %v", r.Labels)
	}
	if !strings.Contains(r.Environment, "export PEPA_HOME=/opt/eclipse") {
		t.Errorf("environment = %q", r.Environment)
	}
	if len(r.Files) != 1 || r.Files[0].Src != "models/test.pepa" || r.Files[0].Dst != "/opt/models/test.pepa" {
		t.Errorf("files = %v", r.Files)
	}
	if len(r.Posts) != 1 || !strings.Contains(r.Posts[0], "pkg install pepa-eclipse-plugin") {
		t.Errorf("posts = %q", r.Posts)
	}
	if !strings.Contains(r.Runscript, "$ARG1") {
		t.Errorf("runscript = %q", r.Runscript)
	}
	if !strings.Contains(r.Test, "pepa.jar") {
		t.Errorf("test = %q", r.Test)
	}
	if r.Source != pepaRecipe {
		t.Error("source not preserved")
	}
}

func TestParseHeaderOnly(t *testing.T) {
	r, err := Parse("Bootstrap: docker\nFrom: ubuntu:16.04\n")
	if err != nil {
		t.Fatal(err)
	}
	if r.Bootstrap != "docker" || r.From != "ubuntu:16.04" {
		t.Errorf("r = %+v", r)
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"From: x\n":                                   "missing bootstrap",
		"Bootstrap: library\n":                        "missing from",
		"Bootstrap: x\nFrom: y\n%wat\n":               "unknown section",
		"Bootstrap: x\nFrom: y\nOops: z\n":            "unknown header",
		"Bootstrap: x\nFrom: y\nnot-a-kv\n":           "bad header line",
		"Bootstrap: x\nFrom: y\n%labels\n  OnlyKey\n": "label without value",
		"Bootstrap: x\nFrom: y\n%files\n  a b c d\n":  "files with too many fields",
	}
	for src, why := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted bad recipe (%s)", why)
		}
	}
}

func TestCommentsAndBlankLinesInHeader(t *testing.T) {
	r, err := Parse("# a build recipe\n\nBootstrap: library\n# interleaved\nFrom: centos:7.4\n")
	if err != nil {
		t.Fatal(err)
	}
	if r.From != "centos:7.4" {
		t.Errorf("From = %q", r.From)
	}
}

func TestFilesSingleField(t *testing.T) {
	r, err := Parse("Bootstrap: x\nFrom: y\n%files\n  /etc/data\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Files) != 1 || r.Files[0].Src != "/etc/data" || r.Files[0].Dst != "/etc/data" {
		t.Errorf("files = %v", r.Files)
	}
}

func TestDedent(t *testing.T) {
	r, err := Parse("Bootstrap: x\nFrom: y\n%post\n    mkdir /a\n    echo hi > /a/f\n")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"mkdir /a\necho hi > /a/f"}; !slices.Equal(r.Posts, want) {
		t.Errorf("posts = %q, want %q", r.Posts, want)
	}
}

func TestStringRoundTrip(t *testing.T) {
	r1, err := Parse(pepaRecipe)
	if err != nil {
		t.Fatal(err)
	}
	printed := r1.String()
	r2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, printed)
	}
	if r2.Bootstrap != r1.Bootstrap || r2.From != r1.From ||
		r2.Help != r1.Help || !slices.Equal(r2.Posts, r1.Posts) ||
		r2.Runscript != r1.Runscript || r2.Test != r1.Test ||
		r2.Environment != r1.Environment {
		t.Error("round trip changed recipe content")
	}
	if len(r2.Files) != len(r1.Files) || r2.Files[0] != r1.Files[0] {
		t.Error("round trip changed files")
	}
	for k, v := range r1.Labels {
		if r2.Labels[k] != v {
			t.Errorf("label %q changed: %q vs %q", k, v, r2.Labels[k])
		}
	}
}

func TestEmptySectionsOmittedFromString(t *testing.T) {
	r, _ := Parse("Bootstrap: x\nFrom: y\n")
	s := r.String()
	for _, sec := range []string{"%help", "%post", "%runscript"} {
		if strings.Contains(s, sec) {
			t.Errorf("empty section %s rendered: %q", sec, s)
		}
	}
}
