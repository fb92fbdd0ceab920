// Command scrun runs a container image (built by scbuild or pulled by
// schub) on a simulated host profile, optionally binding a real directory
// of model files into the container.
//
// Usage:
//
//	scrun -image pepa.scif -host ubuntu-18.04-bionic -bind ./models:/data -- /data/m.pepa
//	scrun -image pepa.scif -isolation docker -escalate
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/hostenv"
	"repro/internal/image"
	"repro/internal/runtime"
	"repro/internal/sigctx"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scrun:", err)
		os.Exit(1)
	}
}

func run() error {
	imagePath := flag.String("image", "", "image file to run")
	hostName := flag.String("host", hostenv.BuildHost, "host profile to run on")
	isolation := flag.String("isolation", "singularity", "singularity or docker")
	bind := flag.String("bind", "", "bind a real directory: <hostdir>:<containerdir>")
	escalate := flag.Bool("escalate", false, "attempt privilege escalation and report the outcome")
	flag.Parse()

	// SIGINT or SIGTERM cancels the run; a second signal force-aborts.
	ctx, stop := sigctx.WithSignals(context.Background())
	defer stop()

	if *imagePath == "" {
		return fmt.Errorf("-image is required")
	}
	blob, err := os.ReadFile(*imagePath)
	if err != nil {
		return err
	}
	img, digest, err := image.Unmarshal(blob)
	if err != nil {
		return err
	}
	host, err := hostenv.ByName(*hostName)
	if err != nil {
		return err
	}
	if err := host.InstallSingularity(); err != nil {
		return err
	}
	opts := runtime.RunOptions{Args: flag.Args(), AttemptEscalation: *escalate}
	switch *isolation {
	case "singularity":
		opts.Isolation = runtime.IsolationSingularity
	case "docker":
		opts.Isolation = runtime.IsolationDocker
	default:
		return fmt.Errorf("unknown isolation %q", *isolation)
	}
	if *bind != "" {
		hostDir, containerDir, ok := strings.Cut(*bind, ":")
		if !ok {
			return fmt.Errorf("bad -bind (want <hostdir>:<containerdir>)")
		}
		// Import the real directory's files into the simulated host FS.
		entries, err := os.ReadDir(hostDir)
		if err != nil {
			return err
		}
		const staging = "/home/modeler/binds"
		if err := host.FS.MkdirAll(staging, 0o755); err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(hostDir, e.Name()))
			if err != nil {
				return err
			}
			if err := host.FS.WriteFile(staging+"/"+e.Name(), data, 0o644); err != nil {
				return err
			}
		}
		opts.Binds = []runtime.Bind{{HostPath: staging, ContainerPath: containerDir}}
	}
	fw := core.New()
	res, err := fw.Engine.RunCtx(ctx, img, host, opts)
	if err != nil {
		return err
	}
	fmt.Printf("image %s (%s) on %s as user %q [%s]\n", img.Ref(), digest[:19], host.Name, res.User, *isolation)
	if *escalate {
		fmt.Printf("privilege escalation succeeded: %v\n", res.EscalationSucceeded)
	}
	fmt.Print(res.Stdout)
	return nil
}
