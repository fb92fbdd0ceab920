// Command scbuild builds a container image from a Singularity definition
// file against a simulated host profile and writes the image to disk in
// the layered (SCIF2) encoding the hub stores: the manifest followed by
// one content-addressed layer per build stage.
//
// Usage:
//
//	scbuild -recipe pepa.def -name pepa -tag latest -host centos-7.4-proliant -o pepa.scif
//	scbuild -tool pepa -o pepa.scif        # use the framework's canned recipe
//	scbuild -list-hosts
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/hostenv"
	"repro/internal/recipe"
	"repro/internal/runtime"
	"repro/internal/sigctx"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scbuild:", err)
		os.Exit(1)
	}
}

func run() error {
	recipePath := flag.String("recipe", "", "definition file to build")
	tool := flag.String("tool", "", "build a canned tool recipe (pepa, biopepa, gpa)")
	name := flag.String("name", "container", "image name")
	tag := flag.String("tag", "latest", "image tag")
	hostName := flag.String("host", hostenv.BuildHost, "host profile to build on")
	out := flag.String("o", "image.scif", "output image path")
	listHosts := flag.Bool("list-hosts", false, "list host profiles and exit")
	flag.Parse()

	ctx, stop := sigctx.WithSignals(context.Background())
	defer stop()

	if *listHosts {
		for _, h := range hostenv.Profiles() {
			fmt.Println(h)
		}
		return nil
	}
	host, err := hostenv.ByName(*hostName)
	if err != nil {
		return err
	}
	if err := host.InstallSingularity(); err != nil {
		return err
	}
	fw := core.New()
	var res *runtime.BuildResult
	switch {
	case *tool != "":
		res, err = fw.BuildCtx(ctx, core.Tool(*tool), host)
		if err != nil {
			return err
		}
	case *recipePath != "":
		src, err := os.ReadFile(*recipePath)
		if err != nil {
			return err
		}
		rcp, err := recipe.Parse(string(src))
		if err != nil {
			return err
		}
		res, err = fw.Engine.BuildCtx(ctx, rcp, host, runtime.BuildContext{}, *name, *tag)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("either -recipe or -tool is required")
	}
	blob, err := res.Image.MarshalLayered()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("built %s on %s\n", res.Image.Ref(), host.Name)
	fmt.Printf("digest: %s\n", res.Digest)
	if res.StagesExecuted+res.StagesReplayed > 0 {
		fmt.Printf("stages: %d executed, %d replayed from cache\n", res.StagesExecuted, res.StagesReplayed)
	}
	fmt.Printf("layers: %d\n", len(res.Image.Layers))
	fmt.Printf("wrote %d bytes to %s\n", len(blob), *out)
	return nil
}
