package core

import (
	"repro/internal/hostenv"
	"repro/internal/image"
	"repro/internal/recipe"
	"repro/internal/runtime"
)

// HubBuilder adapts the framework's engine to the hub's auto-build
// interface: the hub builds pushed recipes itself on a dedicated build
// host, so every published image provably corresponds to a published
// recipe (Singularity-Hub's operating model).
type HubBuilder struct {
	Engine *runtime.Engine
	Host   *hostenv.Host
}

// NewHubBuilder prepares a builder on the standard build host.
func (f *Framework) NewHubBuilder() (*HubBuilder, error) {
	host, err := hostenv.ByName(hostenv.BuildHost)
	if err != nil {
		return nil, err
	}
	if err := host.InstallSingularity(); err != nil {
		return nil, err
	}
	return &HubBuilder{Engine: f.Engine, Host: host}, nil
}

// BuildFromRecipe implements hub.Builder.
func (b *HubBuilder) BuildFromRecipe(recipeSrc, name, tag string) (*image.Image, error) {
	rcp, err := recipe.Parse(recipeSrc)
	if err != nil {
		return nil, err
	}
	res, err := b.Engine.Build(rcp, b.Host, runtime.BuildContext{}, name, tag)
	if err != nil {
		return nil, err
	}
	return res.Image, nil
}
