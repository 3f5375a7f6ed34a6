// Package matrix is the deterministic campaign-matrix runner: it sweeps the
// full cross product of (world × fault family × severity × detector ×
// recovery) cells through one hardened campaign.Runner pool and aggregates
// per-cell campaigns, a Table-I-style summary, and per-cell CSV exports.
//
// Determinism is the package's contract. Every cell derives its own seed
// from the matrix seed and the cell's identity — campaign.MissionSeed over
// an FNV-64a hash of the canonical cell name — so a cell's seed is stable
// under re-ordering or pruning of the axes (dropping a family never
// reshuffles the remaining cells' schedules). Every mission derives its
// seed from the cell seed the same way, and every cell's fault schedule is
// drawn up front
// from a cell-seeded plan RNG (one faultinject.DrawFault per mission, in
// mission order — the faultinject RNG contract). Mission results are then
// pure functions of the flat mission index, so the whole matrix — and the
// CSV files rendered from it — is byte-identical at any worker width (the
// `make matrix-smoke` CI gate). Wall-clock deadlines (Spec.Deadline) are the
// one escape hatch: they trade that invariant for runaway protection, so
// the smoke gate runs without one.
//
// The package lives under internal/campaign (not inside it) because
// internal/pipeline imports the campaign engine for training collection;
// the matrix layer sits above both.
package matrix

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"mavfi/internal/campaign"
	"mavfi/internal/env"
	"mavfi/internal/faultinject"
	"mavfi/internal/pipeline"
	"mavfi/internal/qof"
	"mavfi/internal/record"
)

// Severity is one named magnitude level of the sweep's severity axis; Scale
// feeds faultinject.DrawSpec.Severity.
type Severity struct {
	Name  string
	Scale float64
}

// severityLevels are the named levels ParseSeverities accepts.
var severityLevels = map[string]float64{
	"low":  0.35,
	"med":  0.6,
	"high": 1.0,
}

// DefaultSeverities is the default severity axis.
func DefaultSeverities() []Severity {
	return []Severity{{Name: "low", Scale: 0.35}, {Name: "high", Scale: 1.0}}
}

// ParseSeverities parses a comma-separated severity axis: named levels
// ("low", "med", "high") or explicit "name=scale" pairs.
func ParseSeverities(s string) ([]Severity, error) {
	var out []Severity
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if name, val, ok := strings.Cut(part, "="); ok {
			scale, err := strconv.ParseFloat(val, 64)
			// !(scale > 0) also rejects NaN; infinities parse cleanly but
			// poison every downstream magnitude, so they are refused too.
			if err != nil || name == "" || !(scale > 0) || math.IsInf(scale, 0) {
				return nil, fmt.Errorf("matrix: bad severity %q (want name=positive-finite-scale)", part)
			}
			out = append(out, Severity{Name: name, Scale: scale})
			continue
		}
		scale, ok := severityLevels[part]
		if !ok {
			return nil, fmt.Errorf("matrix: unknown severity level %q (have low, med, high, or name=scale)", part)
		}
		out = append(out, Severity{Name: part, Scale: scale})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("matrix: empty severity list")
	}
	return out, nil
}

// Target is one coordinate of the fault axis: a family plus an optional
// mechanism ("kind") restriction — the matrix form of the
// faultinject.ParseTarget "family[:kind]" syntax. A kindless target sweeps
// the whole family; a kinded target ("sensor:ray_dropout") pins every drawn
// plan to that one mechanism without changing the RNG schedule (the
// faultinject draw-count contract).
type Target struct {
	// Family is the fault family.
	Family faultinject.Family
	// Kind restricts the family to one mechanism ("" = unrestricted). The
	// accepted names are the family's canonical kind names (and the kernel
	// flag names for FamilyKernel), as in faultinject.ParseTarget.
	Kind string
}

// String renders the canonical "family[:kind]" form.
func (t Target) String() string {
	if t.Kind == "" {
		return t.Family.String()
	}
	return t.Family.String() + ":" + t.Kind
}

// ParseTargets parses a comma-separated fault axis where every entry is a
// "family[:kind]" target ("sensor,actuator:thrust_loss"), or "all" for every
// family unrestricted — the fault axis the CLIs and the campaign server
// accept.
func ParseTargets(s string) ([]Target, error) {
	if strings.TrimSpace(s) == "all" {
		var out []Target
		for _, f := range faultinject.Families() {
			out = append(out, Target{Family: f})
		}
		return out, nil
	}
	var out []Target
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fam, _, err := faultinject.ParseTarget(part)
		if err != nil {
			return nil, fmt.Errorf("matrix: %w", err)
		}
		_, kind, _ := strings.Cut(part, ":")
		out = append(out, Target{Family: fam, Kind: kind})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("matrix: empty fault-target list")
	}
	return out, nil
}

// worldPresets are the named standard environments World builds; a
// generated world draws from the rand.Rand it is handed.
var worldPresets = map[string]func(*rand.Rand) *env.World{
	"factory": func(*rand.Rand) *env.World { return env.Factory() },
	"farm":    func(*rand.Rand) *env.World { return env.Farm() },
	"sparse":  env.Sparse,
	"dense":   env.Dense,
}

// World builds one of the named standard environments; a generated world
// draws from its own fresh rand.Source(1). mavfi, mavsim, the job server
// and the dispatcher resolve world names here, so their matrix cells,
// single campaigns and recordings fly the same worlds. The paper
// figures do not: experiments.NewContext draws Sparse and then Dense from
// one rand.Source(Opts.Seed). At the default seed 1 its Sparse world is
// World("sparse"), but its Dense world is not World("dense"). ROADMAP.md
// item 8(a) decides which definition wins.
func World(name string) (*env.World, error) {
	build, ok := worldPresets[name]
	if !ok {
		return nil, fmt.Errorf("matrix: unknown env %q", name)
	}
	return build(rand.New(rand.NewSource(1))), nil
}

// Spec describes one campaign matrix. Zero-valued axes fall back to the
// defaults documented per field.
type Spec struct {
	// Worlds are environment names for World (default ["sparse"]).
	Worlds []string
	// Targets is the fault axis with optional per-mechanism restrictions
	// (default every family, kindless).
	Targets []Target
	// Severities is the severity axis (default DefaultSeverities).
	Severities []Severity
	// Detectors are detector names: "none", "gad", "aad" (default ["none"]).
	Detectors []string
	// Recoveries is the recovery axis for detector-bearing cells (default
	// [true]); "none" cells always collapse to a single recovery-less entry.
	Recoveries []bool
	// MapSeed selects the golden-map mode: "off" (default; every mission
	// builds its octree from scratch, bit-identical to all prior PRs) or
	// "memo" (approximate mode: one deterministic golden map per world,
	// built in process before the fan-out and forked at each mission
	// start, plus saturated-evidence memoization: rays whose endpoint
	// evidence is already clamped skip integration entirely). The mode is
	// deliberately NOT part of Cell.Name: flipping it never reshuffles cell
	// seeds or fault schedules, so exact and approximate runs of one spec
	// are the same missions on different starting maps — which is what the
	// fidelity study compares.
	MapSeed string
	// NearFieldStride, when > 1, forwards pipeline.Config.NearFieldStride
	// to every mission (approximate mode: near-field ray subsampling).
	NearFieldStride int
	// Runs is the number of missions per cell (default 4).
	Runs int
	// Seed is the matrix seed every cell and mission seed derives from.
	Seed int64
	// MaxMissionS overrides the mission time budget (0 = pipeline default).
	MaxMissionS float64
	// TrainEnvs is the training-environment count when a detector axis
	// includes gad/aad (default 12).
	TrainEnvs int
	// Workers sizes the worker pool (0 = campaign.DefaultWorkers).
	Workers int
	// Slots, when non-nil, is a mission-slot pool shared with other runs
	// (campaign.WithSlots): every mission, including an uncached
	// kernel-calibration flight and detector-training collection, flies
	// under one of its slots. Like Progress and OnMission it is runtime-only
	// and never changes results.
	Slots *campaign.Slots
	// Deadline, when positive, bounds each mission's wall-clock time
	// (campaign.WithMissionDeadline) — robustness at the cost of the
	// byte-identity invariant.
	Deadline time.Duration
	// Progress, when non-nil, receives mission completion counts.
	Progress func(done, total int)
	// OnMission, when non-nil, receives every mission result the moment it
	// is final (campaign.WithResultHook semantics: completion order, not
	// mission order, possibly concurrently from several workers; i is the
	// flat mission index, cell i/Runs mission i%Runs). This is the streaming
	// surface the campaign server pushes per-mission results through.
	OnMission func(i int, m qof.Metrics)
	// RecordDir, when set, persists every mission as a replayable recording
	// under it through record.RunCampaign (record.MissionPath over the flat
	// mission index, the layout record.ScanDir recovers). Recording failures
	// never fail missions; the first one is reported in Result.RecordErr.
	RecordDir string
}

// Normalized returns the spec with every zero-valued axis replaced by its
// documented default — the exact spec Run executes and stores in Result.Spec.
// The sharded dispatcher normalizes once up front so the dispatcher, its
// workers, and the sequential reference all enumerate identical cells.
func (s Spec) Normalized() Spec { return s.normalized() }

// Check reports the first reason the normalized spec cannot run, or nil.
// It builds nothing, so RunOn, the campaign server and the dispatcher all
// call it before any world is built or any mission flies, and refuse a bad
// spec with the same text.
func (s Spec) Check() error {
	s = s.normalized()
	for _, w := range s.Worlds {
		if worldPresets[w] == nil {
			return fmt.Errorf("matrix: unknown env %q", w)
		}
	}
	for _, tg := range s.Targets {
		if _, _, err := faultinject.ParseTarget(tg.String()); err != nil {
			return fmt.Errorf("matrix: %w", err)
		}
	}
	// A severity travels to dispatch workers as "name=scale", so the name
	// must survive ParseSeverities and JSON: no separator, no leading white
	// space, valid UTF-8. It also names the cell's CSV file, so it must not
	// name a path: no '/', '\' or NUL.
	for _, sev := range s.Severities {
		if sev.Name == "" || strings.ContainsAny(sev.Name, ",=/\\\x00") || !utf8.ValidString(sev.Name) ||
			strings.TrimLeftFunc(sev.Name, unicode.IsSpace) != sev.Name ||
			!(sev.Scale > 0) || math.IsInf(sev.Scale, 0) {
			return fmt.Errorf("matrix: bad severity %q=%v (want a UTF-8 name without ',', '=', '/', '\\', NUL or leading space, and a positive finite scale)", sev.Name, sev.Scale)
		}
	}
	for _, d := range s.Detectors {
		if err := checkDetector(d); err != nil {
			return err
		}
	}
	switch s.MapSeed {
	case "off", "memo":
	default:
		return fmt.Errorf("matrix: unknown map-seed mode %q (have off, memo)", s.MapSeed)
	}
	if s.NearFieldStride < 0 {
		return fmt.Errorf("matrix: negative near-field stride %d", s.NearFieldStride)
	}
	return nil
}

func (s Spec) normalized() Spec {
	if len(s.Worlds) == 0 {
		s.Worlds = []string{"sparse"}
	}
	if len(s.Targets) == 0 {
		for _, f := range faultinject.Families() {
			s.Targets = append(s.Targets, Target{Family: f})
		}
	}
	if len(s.Severities) == 0 {
		s.Severities = DefaultSeverities()
	}
	if len(s.Detectors) == 0 {
		s.Detectors = []string{"none"}
	}
	if len(s.Recoveries) == 0 {
		s.Recoveries = []bool{true}
	}
	if s.MapSeed == "" {
		s.MapSeed = "off"
	}
	if s.Runs <= 0 {
		s.Runs = 4
	}
	if s.TrainEnvs <= 0 {
		s.TrainEnvs = 12
	}
	return s
}

// Cell identifies one matrix cell: the coordinates on every axis plus the
// derived cell seed.
type Cell struct {
	// Index is the cell's position in the fixed enumeration order.
	Index int
	// World, Family, Severity, Detector, Recovery are the axis coordinates.
	World    string
	Family   faultinject.Family
	Severity Severity
	Detector string
	Recovery bool
	// Kind is the optional mechanism restriction of the cell's fault target
	// ("" = whole family). Kinded cells render "family:kind" in Name, so
	// their seeds are distinct from (and never perturb) kindless cells.
	Kind string
	// Seed is campaign.MissionSeed(matrixSeed, fnv64a(Name())): the root of
	// the cell's plan RNG and its per-mission seeds, a function of the
	// cell's identity rather than its position in the enumeration.
	Seed int64
}

// Target returns the cell's fault-axis coordinate.
func (c Cell) Target() Target { return Target{Family: c.Family, Kind: c.Kind} }

// Name renders the cell's canonical identifier, also used in CSV filenames.
// The cell seed is an FNV-64a hash of this name, so the rendering is part of
// the seed-stability contract: kindless cells render exactly as they did
// before targets existed.
func (c Cell) Name() string {
	rec := "norec"
	if c.Recovery {
		rec = "rec"
	}
	return fmt.Sprintf("%s-%s-%s-%s-%s", c.World, c.Target(), c.Severity.Name, c.Detector, rec)
}

// drawSpec builds the cell's DrawFault parameterization: the open family
// spec at the cell's severity over the world's nominal duration, restricted
// to the cell's kind when one is set. Check has accepted the target, so
// ParseTarget cannot fail here.
func (c Cell) drawSpec(nominalS float64) faultinject.DrawSpec {
	spec := faultinject.NewDrawSpec(nominalS, c.Severity.Scale)
	if c.Kind == "" {
		return spec
	}
	_, restricted, _ := faultinject.ParseTarget(c.Target().String())
	spec.Kernel = restricted.Kernel
	spec.State = restricted.State
	spec.SensorKind = restricted.SensorKind
	spec.ActuatorKind = restricted.ActuatorKind
	return spec
}

// CellResult is one cell's aggregate: its campaign plus the fault plans its
// missions flew (plan j belongs to mission j).
type CellResult struct {
	Cell     Cell
	Campaign *qof.Campaign
	Plans    []faultinject.FaultPlan
}

// Result is one completed (or cancelled) matrix run.
type Result struct {
	// Spec is the normalized specification the matrix ran under.
	Spec Spec
	// Cells holds one entry per cell in enumeration order; on cancellation
	// trailing cells may hold partial or empty campaigns.
	Cells []CellResult
	// Panics lists isolated mission panics (flat mission index i maps to
	// cell i/Runs, mission i%Runs). Empty on a healthy run.
	Panics []campaign.MissionPanic
	// RecordErr is the first recording failure when Spec.RecordDir was set
	// (nil otherwise, and nil on a fully recorded run). Recording failures
	// never abort missions, so the Result is complete even when set.
	RecordErr error
}

// enumerate builds the fixed cell grid: world-major, then fault target,
// severity, detector, and recovery — the enumeration order cell seeds are
// defined over. Changing this order is a breaking change to every matrix
// seed.
func enumerate(spec Spec) []Cell {
	var cells []Cell
	for _, w := range spec.Worlds {
		for _, tg := range spec.Targets {
			for _, sev := range spec.Severities {
				for _, det := range spec.Detectors {
					recs := spec.Recoveries
					if det == "none" {
						// No detector means no recovery axis: one cell.
						recs = []bool{false}
					}
					for _, rec := range recs {
						c := Cell{
							Index:    len(cells),
							World:    w,
							Family:   tg.Family,
							Kind:     tg.Kind,
							Severity: sev,
							Detector: det,
							Recovery: rec,
						}
						h := fnv.New64a()
						h.Write([]byte(c.Name()))
						c.Seed = campaign.MissionSeed(spec.Seed, int(h.Sum64()>>1))
						cells = append(cells, c)
					}
				}
			}
		}
	}
	return cells
}

// Cells returns the spec's cell grid in enumeration order without running
// anything — how the campaign server derives a job's cell identity (name,
// seed, CSV filename) at submission time and during restart recovery.
func Cells(spec Spec) []Cell {
	return enumerate(spec.normalized())
}

// Run executes the matrix. Cells share one flat hardened worker pool (the
// pool never idles at cell boundaries), detectors are trained once and
// cloned per mission, and kernel-family cells calibrate dynamic-value counts
// with one golden run per world before the sweep starts.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	return RunOn(ctx, spec, NewAssets())
}

// RunOn is Run against a caller-owned warm-asset cache: a long-running
// campaign server passes one Assets so worlds, calibration counters, and
// trained detectors are built once and shared across jobs. Results are
// bit-identical to a cold Run because every cached asset is a deterministic
// pure function of its key and is either immutable (worlds, counters) or
// cloned per mission (detectors) — this is the code path both the `mavfi
// matrix` CLI and the campaign server execute, which is what makes the
// served-equals-CLI byte-identity invariant testable.
func RunOn(ctx context.Context, spec Spec, assets *Assets) (*Result, error) {
	if err := spec.Check(); err != nil {
		return nil, err
	}
	spec = spec.normalized()
	cells := enumerate(spec)
	if assets == nil {
		assets = NewAssets()
	}

	worlds := make(map[string]*env.World, len(spec.Worlds))
	seeds := make(map[string]*pipeline.MapSeed, len(spec.Worlds))
	for _, name := range spec.Worlds {
		if _, ok := worlds[name]; ok {
			continue
		}
		w, err := assets.World(name)
		if err != nil {
			return nil, err
		}
		worlds[name] = w
		if spec.MapSeed == "memo" {
			// Golden maps are built (or taken from the asset cache)
			// sequentially before the fan-out: every worker forks the same
			// immutable snapshot, so worker width stays unobservable.
			s, err := assets.MapSeed(name)
			if err != nil {
				return nil, err
			}
			seeds[name] = s
		}
	}

	needKernel := false
	for _, tg := range spec.Targets {
		needKernel = needKernel || tg.Family == faultinject.FamilyKernel
	}
	// Per-world calibration (kernel family only) and nominal durations, both
	// sequential and mission-independent.
	counters := make(map[string]*faultinject.Counter, len(worlds))
	nominal := make(map[string]float64, len(worlds))
	for name, w := range worlds {
		nominal[name] = pipeline.NominalDuration(pipeline.Config{World: w, MaxMissionS: spec.MaxMissionS})
		if needKernel {
			ctr, err := assets.counter(ctx, spec.Slots, name, spec.Seed, spec.MaxMissionS)
			if err != nil {
				return nil, err
			}
			counters[name] = ctr
		}
	}

	opts := []campaign.Option{
		campaign.WithWorkers(spec.Workers),
		campaign.WithMissionDeadline(spec.Deadline),
		campaign.WithProgress(spec.Progress),
		campaign.WithSlots(spec.Slots),
	}
	if spec.OnMission != nil {
		opts = append(opts, campaign.WithResultHook(spec.OnMission))
	}
	runner := campaign.New(opts...)
	factories, err := assets.detectorFactories(ctx, runner, spec)
	if err != nil {
		return nil, err
	}

	// Draw every cell's fault schedule up front: one plan RNG per cell
	// (seeded by the cell seed), one DrawFault per mission in mission order.
	plans := make([][]faultinject.FaultPlan, len(cells))
	for ci, cell := range cells {
		planRNG := rand.New(rand.NewSource(cell.Seed))
		drawSpec := cell.drawSpec(nominal[cell.World])
		cellPlans := make([]faultinject.FaultPlan, spec.Runs)
		for j := range cellPlans {
			cellPlans[j] = faultinject.DrawFault(cell.Family, drawSpec, counters[cell.World], planRNG)
		}
		plans[ci] = cellPlans
	}

	total := len(cells) * spec.Runs
	out, runErr := record.RunCampaign(ctx, runner, spec.RecordDir, "matrix", total, func(i int) pipeline.Config {
		ci, j := i/spec.Runs, i%spec.Runs
		cell := cells[ci]
		cfg := pipeline.Config{
			World:           worlds[cell.World],
			Seed:            campaign.MissionSeed(cell.Seed, j),
			MaxMissionS:     spec.MaxMissionS,
			MapSeed:         seeds[cell.World], // nil in "off" mode
			NearFieldStride: spec.NearFieldStride,
			MemoSkip:        spec.MapSeed == "memo",
		}
		cfg.SetFault(plans[ci][j])
		if mk := factories[cell.Detector]; mk != nil {
			cfg.Detector = mk()
			cfg.DetectOnly = !cell.Recovery
		}
		return cfg
	})
	if out == nil {
		return nil, runErr // the record dir could not be made
	}
	res := &Result{Spec: spec, Panics: out.Panics}
	if runErr != nil && !errors.Is(runErr, ctx.Err()) {
		// A recording failure: every mission flew, so the Result is whole.
		res.RecordErr, runErr = runErr, nil
	}
	for ci, cell := range cells {
		camp := &qof.Campaign{Name: cell.Name()}
		lo, hi := ci*spec.Runs, (ci+1)*spec.Runs
		if lo > len(out.Campaign.Results) {
			lo = len(out.Campaign.Results)
		}
		if hi > len(out.Campaign.Results) {
			hi = len(out.Campaign.Results)
		}
		camp.Results = append(camp.Results, out.Campaign.Results[lo:hi]...)
		res.Cells = append(res.Cells, CellResult{Cell: cell, Campaign: camp, Plans: plans[ci]})
	}
	return res, runErr
}
