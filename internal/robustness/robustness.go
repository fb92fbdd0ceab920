// Package robustness replicates the resource-allocation robustness study
// of Srivastava & Banicescu (ISPDC'18, the paper's ref [5]) that §III of
// the containerization paper uses to validate its PEPA container: 20
// parallel applications mapped onto 5 heterogeneous machines under two
// static mappings (Table I), with machine availability varying over time.
//
// Each machine is modelled as a PEPA component that executes its assigned
// applications in sequence while cooperating with an availability component
// that alternates between up and down states; the finishing time of a
// machine is the first-passage time to its "all applications done" state
// (Figs 3 and 4 plot its CDF for machine M1 under Mapping A and B).
//
// The original ETC (expected time to compute) matrix is not published; we
// generate a deterministic synthetic ETC with the usual consistent-range
// construction (application workload x machine speed), seeded so every run
// of this package reproduces identical numbers. DESIGN.md records this
// substitution.
package robustness

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ctmc"
	"repro/internal/diagram"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
	"repro/internal/rng"
	"repro/internal/runctx"
)

// Counts from the study.
const (
	NumApps     = 20
	NumMachines = 5
)

// Mapping names.
const (
	MappingA = "A"
	MappingB = "B"
)

// mappings is Table I of the paper: 1-based application indices per
// machine.
var mappings = map[string][NumMachines][]int{
	MappingA: {
		{5, 9, 12, 17, 20},
		{6, 16},
		{1, 3, 7},
		{2, 4, 10, 13, 15, 19},
		{8, 11, 14, 18},
	},
	MappingB: {
		{3, 4, 5, 17, 18, 20},
		{2, 11, 14, 19},
		{1, 7, 13},
		{9, 12, 15},
		{6, 8, 10, 16},
	},
}

// TableI returns the application-to-machine mapping of the paper's Table I
// for mapping "A" or "B". Machine index is 0-based (M1 == 0); application
// ids are 1-based, matching the paper's a_i notation.
func TableI(mapping string) ([NumMachines][]int, error) {
	m, ok := mappings[mapping]
	if !ok {
		return m, fmt.Errorf("robustness: unknown mapping %q (want A or B)", mapping)
	}
	return m, nil
}

// Study holds the replication's parameters.
type Study struct {
	// ETC[i][j] is the expected time to compute application i+1 on
	// machine j (hours of machine time at full availability).
	ETC [NumApps][NumMachines]float64
	// FailRate and RepairRate parameterize each machine's availability
	// component (exponential up/down alternation).
	FailRate   float64
	RepairRate float64
	// Obs, when non-nil, receives every passage solve's metrics
	// (transient solves, uniformization terms, Poisson-cache outcomes)
	// and the study's family reuse count.
	Obs *obs.Registry

	// hookCell, when non-nil, runs after each machine's finishing-time
	// CDF of a makespan has been computed — the test seam that cancels a
	// study at a deterministic point mid-flight.
	hookCell func(mapping string, j int)

	// famMu guards families, the per-machine chain-family cache. The
	// pointer is shared into every Perturbed copy, so an entire
	// perturbation sweep derives each machine's state space exactly once
	// and re-rates it per sample (see ctmc.ChainFamily).
	famMu    sync.Mutex
	families *familySet
}

// familySet memoizes one machine cell (chain family and passage setup)
// per (mapping, machine), shared across a study and all its perturbed
// copies.
type familySet struct {
	mu sync.Mutex
	m  map[string]*familyEntry
}

type familyEntry struct {
	mu   sync.Mutex
	done bool
	cell *machineCell
	err  error
}

// machineCell is one machine's derived family with everything its
// passage solves share: the "all applications done" targets, the point
// mass on the initial state, and, for each of the family's rate constants
// in RateNames order, where its value comes from — an application's ETC
// entry (its 1-based id) or one of the rateFail, rateRepair and rateDone
// constants.
type machineCell struct {
	fam     *ctmc.ChainFamily
	targets []int
	p0      []float64
	source  []int
}

// Rate sources of a machine model's constants other than the r_a<app>
// execution rates.
const (
	rateFail = -1 - iota
	rateRepair
	rateDone
)

// doneRate is the completion marker's self-loop rate (see MachineModel).
const doneRate = 1e-9

// passageEps is the truncation budget of every finishing-time CDF.
const passageEps = 1e-10

func (fs *familySet) entry(key string) *familyEntry {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e := fs.m[key]
	if e == nil {
		e = &familyEntry{}
		fs.m[key] = e
	}
	return e
}

// get memoizes a successful build. Failures — including cancellations,
// which must not poison the cell for later runs — are returned but not
// cached, so the next caller retries.
func (e *familyEntry) get(build func() (*machineCell, error)) (*machineCell, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done {
		e.cell, e.err = build()
		e.done = e.err == nil
	}
	return e.cell, e.err
}

// familySetRef lazily creates the shared family cache; Perturbed copies
// inherit the same pointer.
func (s *Study) familySetRef() *familySet {
	s.famMu.Lock()
	defer s.famMu.Unlock()
	if s.families == nil {
		s.families = &familySet{m: map[string]*familyEntry{}}
	}
	return s.families
}

// etcSeed seeds the synthetic ETC matrix.
const etcSeed = 2019

// NewStudy constructs the study with the deterministic synthetic ETC and
// the availability parameters used throughout the reproduction.
func NewStudy() *Study {
	s := &Study{FailRate: 0.05, RepairRate: 0.5}
	r := rng.New(etcSeed)
	// Consistent ETC: workload_i in [8, 40] task-hours, speed_j in
	// [0.6, 1.8]; ETC = workload/speed * (1 +/- 10% noise).
	var workload [NumApps]float64
	var speed [NumMachines]float64
	for i := range workload {
		workload[i] = 8 + 32*r.Float64()
	}
	for j := range speed {
		speed[j] = 0.6 + 1.2*r.Float64()
	}
	for i := range workload {
		for j := range speed {
			noise := 0.9 + 0.2*r.Float64()
			s.ETC[i][j] = workload[i] / speed[j] * noise
		}
	}
	return s
}

// Rate returns the execution rate of application app (1-based) on machine
// j (0-based): the reciprocal of its ETC entry.
func (s *Study) Rate(app, j int) float64 {
	return 1 / s.ETC[app-1][j]
}

// execAction names the PEPA action for executing an application.
func execAction(app int) string { return fmt.Sprintf("exec_a%d", app) }

// MachineModel builds the PEPA model of machine j under the mapping:
//
//	M_j_0 = (exec_ai1, r_i1j).M_j_1;  ...  M_j_k = Done (absorbing)
//	Avail = (exec_ai1, T).Avail + ... + (fail, f).Down;
//	Down  = (repair, rp).Avail;
//	M_j_0 <exec_*> Avail
//
// With cyclic true the final derivative loops back to the start through a
// "reset" activity instead of absorbing — the form whose activity diagram
// Fig 2 shows.
func (s *Study) MachineModel(mapping string, j int, cyclic bool) (*pepa.Model, error) {
	tab, err := TableI(mapping)
	if err != nil {
		return nil, err
	}
	if j < 0 || j >= NumMachines {
		return nil, fmt.Errorf("robustness: machine index %d out of range", j)
	}
	apps := tab[j]
	m := pepa.NewModel()
	m.DefineRate("fail", s.FailRate)
	m.DefineRate("repair", s.RepairRate)

	stateName := func(k int) string {
		if k == len(apps) {
			if cyclic {
				return fmt.Sprintf("M%d_0", j+1)
			}
			return fmt.Sprintf("Done%d", j+1)
		}
		return fmt.Sprintf("M%d_%d", j+1, k)
	}
	for k, app := range apps {
		rateName := fmt.Sprintf("r_a%d", app)
		m.DefineRate(rateName, s.Rate(app, j))
		var body pepa.Process = &pepa.Prefix{
			Action: execAction(app),
			Rate:   &pepa.RateRef{Name: rateName},
			Cont:   &pepa.Const{Name: stateName(k + 1)},
		}
		m.Define(stateName(k), body)
	}
	if !cyclic {
		// Absorbing completion state: a self-looping "finished" marker is
		// not needed; a constant defined as a never-enabled choice would be
		// illegal, so Done is a process with a single very slow self loop
		// on a distinct action, which we exclude from the passage target
		// by making it absorbing in the CTMC transform instead. Simplest
		// sound encoding: Done = (done_j, done_rate).Done with the passage
		// analysis targeting entry into Done.
		m.DefineRate("done_rate", doneRate)
		m.Define(stateName(len(apps)), &pepa.Prefix{
			Action: fmt.Sprintf("done%d", j+1),
			Rate:   &pepa.RateRef{Name: "done_rate"},
			Cont:   &pepa.Const{Name: stateName(len(apps))},
		})
	}

	// Availability component offering every exec action passively.
	var availBody pepa.Process = &pepa.Prefix{
		Action: "fail",
		Rate:   &pepa.RateRef{Name: "fail"},
		Cont:   &pepa.Const{Name: "Down"},
	}
	coopSet := make([]string, 0, len(apps))
	for _, app := range apps {
		availBody = &pepa.Choice{
			Left: &pepa.Prefix{
				Action: execAction(app),
				Rate:   &pepa.RatePassive{},
				Cont:   &pepa.Const{Name: "Avail"},
			},
			Right: availBody,
		}
		coopSet = append(coopSet, execAction(app))
	}
	m.Define("Avail", availBody)
	m.Define("Down", &pepa.Prefix{
		Action: "repair",
		Rate:   &pepa.RateRef{Name: "repair"},
		Cont:   &pepa.Const{Name: "Avail"},
	})
	m.System = pepa.NewCoop(&pepa.Const{Name: stateName(0)}, &pepa.Const{Name: "Avail"}, coopSet)
	if res := pepa.Check(m); res.Err() != nil {
		return nil, fmt.Errorf("robustness: generated model fails checks: %w", res.Err())
	}
	return m, nil
}

// FinishingCDF computes the CDF of the finishing time of machine j under
// the mapping on the given time grid — the quantity plotted in Figs 3/4.
func (s *Study) FinishingCDF(mapping string, j int, times []float64) (*ctmc.PassageCDF, error) {
	return s.FinishingCDFCtx(context.Background(), mapping, j, times)
}

// FinishingCDFCtx is FinishingCDF with cooperative cancellation, polled
// inside the state-space BFS and the passage-time solve.
func (s *Study) FinishingCDFCtx(ctx context.Context, mapping string, j int, times []float64) (*ctmc.PassageCDF, error) {
	cell, err := s.machineCell(ctx, mapping, j)
	if err != nil {
		return nil, err
	}
	rates := make([]float64, len(cell.source))
	s.fillRates(rates, cell, &s.ETC, j)
	s.Obs.Inc("robustness_family_total", obs.L("outcome", "reuse"))
	probs := make([]float64, len(times))
	err = cell.fam.FirstPassageCDFs(ctx, [][]float64{rates}, cell.p0, cell.targets, times, passageEps, s.Obs, func(_, i int, p float64) {
		probs[i] = p
	})
	if err != nil {
		return nil, err
	}
	return &ctmc.PassageCDF{Times: append([]float64(nil), times...), Probs: probs}, nil
}

// machineCell returns machine j's cell through the shared family cache:
// the machine's state space is derived once per (mapping, machine) —
// shared across the study and every Perturbed copy — and every passage
// solve re-rates it. A family build error — derive.ErrNotReratable
// included — is the study's error.
func (s *Study) machineCell(ctx context.Context, mapping string, j int) (*machineCell, error) {
	key := fmt.Sprintf("%s/%d", mapping, j)
	return s.familySetRef().entry(key).get(func() (*machineCell, error) {
		m, err := s.MachineModel(mapping, j, false)
		if err != nil {
			return nil, err
		}
		ss, err := derive.ExploreCtx(ctx, m, derive.Options{})
		if err != nil {
			return nil, err
		}
		fam, err := ctmc.NewChainFamily(ss)
		if err != nil {
			return nil, err
		}
		targets, err := completionTargets(ss, j)
		if err != nil {
			return nil, err
		}
		names := fam.RateNames()
		source := make([]int, len(names))
		for c, name := range names {
			switch name {
			case "fail":
				source[c] = rateFail
			case "repair":
				source[c] = rateRepair
			case "done_rate":
				source[c] = rateDone
			default:
				id, ok := strings.CutPrefix(name, "r_a")
				app, err := strconv.Atoi(id)
				if !ok || err != nil || app < 1 || app > NumApps {
					return nil, fmt.Errorf("robustness: machine %d rate constant %q has no source", j+1, name)
				}
				source[c] = app
			}
		}
		p0 := make([]float64, ss.NumStates())
		p0[0] = 1
		return &machineCell{fam: fam, targets: targets, p0: p0, source: source}, nil
	})
}

// fillRates writes machine j's rate constants under an ETC matrix into
// row, in the cell's RateNames order. It MUST mirror MachineModel's
// DefineRate calls — same values, bit for bit — because the passage
// solves substitute these into the derived prototype in place of a fresh
// derivation (TestFamilyPathByteIdentical pins the two paths together).
func (s *Study) fillRates(row []float64, cell *machineCell, etc *[NumApps][NumMachines]float64, j int) {
	for c, src := range cell.source {
		switch src {
		case rateFail:
			row[c] = s.FailRate
		case rateRepair:
			row[c] = s.RepairRate
		case rateDone:
			row[c] = doneRate
		default:
			row[c] = 1 / etc[src-1][j] // Rate(app, j) on this ETC
		}
	}
}

// completionTargets finds machine j's "all applications done" states —
// the passage target of Figs 3/4. State numbering is identical for every
// member of a machine's family (derivation is structure-driven), so the
// target set computed from the prototype is valid for all of them.
func completionTargets(ss *derive.StateSpace, j int) ([]int, error) {
	done := fmt.Sprintf("Done%d", j+1)
	targets := ss.StatesMatching(func(term string) bool {
		return strings.Contains(term, done)
	})
	if len(targets) == 0 {
		return nil, fmt.Errorf("robustness: no completion state found for machine %d", j+1)
	}
	return targets, nil
}

// MakespanCDF computes the CDF of the mapping's makespan (the time by
// which every machine has finished). The machines' availability processes
// are independent, so the makespan CDF is the product of the per-machine
// finishing-time CDFs — computed in parallel on the par pool, multiplied
// in machine order, so the product is bit-identical at any GOMAXPROCS.
func (s *Study) MakespanCDF(mapping string, times []float64) (*ctmc.PassageCDF, error) {
	return s.MakespanCDFCtx(context.Background(), mapping, times)
}

// MakespanCDFCtx is MakespanCDF with cooperative cancellation. An
// interrupted run returns a *runctx.ErrCanceled counting the machines
// that finished, with their CDFs (nil for the rest) as its Partial.
func (s *Study) MakespanCDFCtx(ctx context.Context, mapping string, times []float64) (*ctmc.PassageCDF, error) {
	cdfs, err := par.Map(ctx, NumMachines, func(j int) (*ctmc.PassageCDF, error) {
		cdf, err := s.FinishingCDFCtx(ctx, mapping, j, times)
		if err != nil {
			return nil, fmt.Errorf("robustness: machine %d: %w", j+1, err)
		}
		if s.hookCell != nil {
			s.hookCell(mapping, j)
		}
		return cdf, nil
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			done := 0
			for _, cdf := range cdfs {
				if cdf != nil {
					done++
				}
			}
			runctx.Record(s.Obs, "robustness.makespan", cerr)
			ec := runctx.New("robustness.makespan", cerr, done, NumMachines, "machines")
			ec.Partial = cdfs
			return nil, ec
		}
		return nil, err
	}
	out := &ctmc.PassageCDF{Times: append([]float64(nil), times...), Probs: make([]float64, len(times))}
	for i := range out.Probs {
		out.Probs[i] = 1
	}
	for _, cdf := range cdfs {
		for i := range out.Probs {
			out.Probs[i] *= cdf.Probs[i]
		}
	}
	return out, nil
}

// Robustness returns P(makespan <= tau): the probability the allocation
// meets the deadline despite availability variation — the study's
// robustness metric.
func (s *Study) Robustness(mapping string, tau float64, samples int) (float64, error) {
	return s.RobustnessCtx(context.Background(), mapping, tau, samples)
}

// RobustnessCtx is Robustness with cooperative cancellation, inherited
// from MakespanCDFCtx.
func (s *Study) RobustnessCtx(ctx context.Context, mapping string, tau float64, samples int) (float64, error) {
	times, err := deadlineGrid(tau, samples)
	if err != nil {
		return 0, err
	}
	cdf, err := s.MakespanCDFCtx(ctx, mapping, times)
	if err != nil {
		return 0, err
	}
	return cdf.Probs[len(cdf.Probs)-1], nil
}

// deadlineGrid is the CDF grid a robustness evaluation walks: samples+1
// evenly spaced points from 0 to the deadline tau. It needs at least one
// sample and a finite, non-negative tau (a NaN grid point would reach the
// Poisson weights as a NaN rate).
func deadlineGrid(tau float64, samples int) ([]float64, error) {
	if samples < 1 {
		return nil, fmt.Errorf("robustness: need at least one CDF sample, got %d", samples)
	}
	if !(tau >= 0) || math.IsInf(tau, 1) {
		return nil, fmt.Errorf("robustness: deadline tau = %g must be finite and non-negative", tau)
	}
	times := make([]float64, samples+1)
	for i := range times {
		times[i] = tau * float64(i) / float64(samples)
	}
	return times, nil
}

// ActivityDiagram renders the Fig 2 replication: the derivation graph of
// machine j's cyclic component under the mapping, in DOT.
func (s *Study) ActivityDiagram(mapping string, j int) (string, error) {
	m, err := s.MachineModel(mapping, j, true)
	if err != nil {
		return "", err
	}
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		return "", err
	}
	title := fmt.Sprintf("Activity diagram: machine M%d, Mapping %s", j+1, mapping)
	return diagram.DOT(ss, title), nil
}

// ActivityText renders the same diagram as plain text.
func (s *Study) ActivityText(mapping string, j int) (string, error) {
	m, err := s.MachineModel(mapping, j, true)
	if err != nil {
		return "", err
	}
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		return "", err
	}
	title := fmt.Sprintf("Activity diagram: machine M%d, Mapping %s", j+1, mapping)
	return diagram.Text(ss, title), nil
}

// FormatTableI renders Table I in the paper's layout.
func FormatTableI() string {
	var b strings.Builder
	b.WriteString("Machine\tMapping A\tMapping B\n")
	a := mappings[MappingA]
	bb := mappings[MappingB]
	for j := 0; j < NumMachines; j++ {
		fmt.Fprintf(&b, "M%d\t%s\t%s\n", j+1, appList(a[j]), appList(bb[j]))
	}
	return b.String()
}

func appList(apps []int) string {
	parts := make([]string, len(apps))
	for i, a := range apps {
		parts[i] = fmt.Sprintf("a%d", a)
	}
	return strings.Join(parts, ",")
}

// CheckTableI verifies the structural invariants of Table I: every
// application appears exactly once per mapping.
func CheckTableI() error {
	for name, tab := range mappings {
		seen := map[int]int{}
		for _, apps := range tab {
			for _, a := range apps {
				seen[a]++
			}
		}
		for a := 1; a <= NumApps; a++ {
			if seen[a] != 1 {
				return fmt.Errorf("robustness: mapping %s assigns a%d %d times", name, a, seen[a])
			}
		}
		if len(seen) != NumApps {
			return fmt.Errorf("robustness: mapping %s has %d distinct apps", name, len(seen))
		}
	}
	return nil
}
