package core

import (
	"fmt"
	"strings"

	"repro/internal/hostenv"
	"repro/internal/hub"
)

// §II.B of the paper describes the ACM artifact review and badging
// initiative (its ref [1]): publications earn badges when their digital
// artifacts are found functional, reusable, and available, and when the
// study's results are validated and reproduced. This file turns those
// criteria into checks the framework runs against itself, so the badge
// claims are measurements rather than assertions.

// Badge identifies one ACM artifact badge.
type Badge string

// The ACM badge set (Artifact Review and Badging v1.0 terminology).
const (
	BadgeFunctional Badge = "Artifacts Evaluated — Functional"
	BadgeReusable   Badge = "Artifacts Evaluated — Reusable"
	BadgeAvailable  Badge = "Artifacts Available"
	BadgeValidated  Badge = "Results Validated — Replicated"
	BadgeReproduced Badge = "Results Validated — Reproduced"
)

// BadgeResult records one badge assessment.
type BadgeResult struct {
	Badge    Badge
	Earned   bool
	Evidence []string // what was checked, in order
}

// BadgeReport is the full assessment.
type BadgeReport struct {
	Results []BadgeResult
}

// Earned lists the earned badges in assessment order.
func (r *BadgeReport) Earned() []Badge {
	var out []Badge
	for _, b := range r.Results {
		if b.Earned {
			out = append(out, b.Badge)
		}
	}
	return out
}

// String renders the report.
func (r *BadgeReport) String() string {
	var b strings.Builder
	for _, res := range r.Results {
		mark := "✗"
		if res.Earned {
			mark = "✓"
		}
		fmt.Fprintf(&b, "[%s] %s\n", mark, res.Badge)
		for _, e := range res.Evidence {
			fmt.Fprintf(&b, "      - %s\n", e)
		}
	}
	return b.String()
}

// AssessBadges runs the badge criteria against a hub that the framework's
// containers have been pushed to:
//
//   - Functional: every container builds from its recipe and runs its
//     canned model to completion on the build host;
//   - Reusable: the containers also run user-supplied inputs (a model not
//     baked into any recipe) and the recipes are regenerable from source;
//   - Available: every container is retrievable from the archive (hub)
//     with a verified content digest;
//   - Validated (replicated): the containerized runs produce output
//     byte-identical to native runs (the paper's §III methodology);
//   - Reproduced: an independent environment (a different host profile)
//     obtains the same results from the published artifacts.
func (f *Framework) AssessBadges(client *hub.Client) (*BadgeReport, error) {
	report := &BadgeReport{}
	builder, err := hostenv.ByName(hostenv.BuildHost)
	if err != nil {
		return nil, err
	}
	if err := builder.InstallSingularity(); err != nil {
		return nil, err
	}
	builds, err := f.BuildAll(builder)
	if err != nil {
		return nil, err
	}
	digests, err := f.PushAll(client, builds)
	if err != nil {
		return nil, err
	}

	// One native-vs-container validation per tool on the build host feeds
	// Functional, Validated and the build-host half of Reproduced.
	onBuilder := map[Tool]*ValidationReport{}
	builderErr := map[Tool]error{}
	for _, t := range Tools() {
		ex := ExampleModel(t)
		onBuilder[t], builderErr[t] = f.Validate(t, builder, builds[t].Image, ex.Name, ex.Source, ex.Args...)
	}

	// Functional.
	functional := BadgeResult{Badge: BadgeFunctional, Earned: true}
	for _, t := range Tools() {
		if rep, err := onBuilder[t], builderErr[t]; err != nil || rep.ContainerOut == "" {
			functional.Earned = false
			functional.Evidence = append(functional.Evidence, fmt.Sprintf("%s: containerized run failed: %v", t, err))
			continue
		}
		functional.Evidence = append(functional.Evidence, fmt.Sprintf("%s builds from recipe and runs its example model", t))
	}
	report.Results = append(report.Results, functional)

	// Reusable: run a model that no recipe or example bundles.
	reusable := BadgeResult{Badge: BadgeReusable, Earned: true}
	userModel := "r = 0.7;\nU = (userwork, r).U1;\nU1 = (userrest, 1.4).U;\nU\n"
	rep, err := f.Validate(ToolPEPA, builder, builds[ToolPEPA].Image, "usersupplied.pepa", userModel)
	if err != nil || !strings.Contains(rep.ContainerOut, "steady-state distribution") {
		reusable.Earned = false
		reusable.Evidence = append(reusable.Evidence, fmt.Sprintf("user-supplied model failed: %v", err))
	} else {
		reusable.Evidence = append(reusable.Evidence, "container solves a user-supplied model (not bundled with any recipe)")
	}
	for _, t := range Tools() {
		if _, err := Recipe(t); err != nil {
			reusable.Earned = false
			reusable.Evidence = append(reusable.Evidence, fmt.Sprintf("%s recipe not regenerable: %v", t, err))
		}
	}
	if reusable.Earned {
		reusable.Evidence = append(reusable.Evidence, "all recipes regenerate from source")
	}
	report.Results = append(report.Results, reusable)

	// Available.
	available := BadgeResult{Badge: BadgeAvailable, Earned: true}
	for _, t := range Tools() {
		if _, _, err := client.Pull(f.Collection, string(t), "latest", digests[t]); err != nil {
			available.Earned = false
			available.Evidence = append(available.Evidence, fmt.Sprintf("%s: pull failed: %v", t, err))
			continue
		}
		available.Evidence = append(available.Evidence, fmt.Sprintf("%s retrievable from the archive, digest verified", t))
	}
	report.Results = append(report.Results, available)

	// Validated: native-vs-container equality on the build host.
	validated := BadgeResult{Badge: BadgeValidated, Earned: true}
	for _, t := range Tools() {
		if rep, err := onBuilder[t], builderErr[t]; err != nil || !rep.Match {
			validated.Earned = false
			validated.Evidence = append(validated.Evidence, fmt.Sprintf("%s: containerized output differs from native", t))
			continue
		}
		validated.Evidence = append(validated.Evidence, fmt.Sprintf("%s: containerized output byte-identical to native", t))
	}
	report.Results = append(report.Results, validated)

	// Reproduced: an independent environment pulls the published artifacts
	// and obtains the same results.
	reproduced := BadgeResult{Badge: BadgeReproduced, Earned: true}
	independent, err := hostenv.ByName(hostenv.GCPInstance)
	if err != nil {
		return nil, err
	}
	if err := independent.InstallSingularity(); err != nil {
		return nil, err
	}
	for _, t := range Tools() {
		img, _, err := client.Pull(f.Collection, string(t), "latest", digests[t])
		if err != nil {
			reproduced.Earned = false
			reproduced.Evidence = append(reproduced.Evidence, fmt.Sprintf("%s: pull on independent host failed: %v", t, err))
			continue
		}
		if builderErr[t] != nil {
			return nil, builderErr[t]
		}
		ex := ExampleModel(t)
		repI, err := f.Validate(t, independent, img, ex.Name, ex.Source, ex.Args...)
		if err != nil || repI.ContainerOut != onBuilder[t].ContainerOut {
			reproduced.Earned = false
			reproduced.Evidence = append(reproduced.Evidence, fmt.Sprintf("%s: independent host produced different output", t))
			continue
		}
		reproduced.Evidence = append(reproduced.Evidence,
			fmt.Sprintf("%s: %s reproduces the build host's results from pulled artifacts", t, independent.Name))
	}
	report.Results = append(report.Results, reproduced)
	return report, nil
}
