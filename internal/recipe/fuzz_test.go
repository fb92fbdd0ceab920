package recipe

import (
	"slices"
	"testing"
)

// FuzzParse checks the definition-file parser never panics and that
// successful parses survive a String round trip.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"Bootstrap: library\nFrom: centos:7.4\n",
		pepaRecipe,
		"Bootstrap: docker\nFrom: x\n%post\n  a\n  b\n",
		"Bootstrap: x\nFrom: y\n%labels\n  K v\n%files\n  a b\n",
		"# comment\nBootstrap: x\nFrom: y\n%help\n  text\n",
		"Bootstrap: x\nFrom: y\n%unknown\n",
		"garbage header\n",
		"Bootstrap: x\nFrom: y\n%environment\n    export A=1\n%runscript\n    echo $A\n%test\n    true\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		r, err := Parse(src)
		if err != nil {
			return
		}
		printed := r.String()
		r2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printer emitted unparsable output: %v\nprinted:\n%s", err, printed)
		}
		if r2.Bootstrap != r.Bootstrap || r2.From != r.From || !slices.Equal(r2.Posts, r.Posts) ||
			r2.Runscript != r.Runscript || r2.Environment != r.Environment || r2.Test != r.Test {
			t.Fatalf("round trip changed recipe\ninput: %q", src)
		}
	})
}
