package matrix

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// CellSpec is the single-cell wire form of a campaign: the campaign
// server's POST /jobs body and job.json spec (server.JobSpec), and the spec
// a dispatcher sends a worker in each work unit. Every field maps onto a
// `mavfi matrix` flag, so a cell's CSVs are byte-identical to
//
//	mavfi matrix -worlds WORLD -families FAULT -severities SEVERITY \
//	             -detectors DETECTOR -recoveries on|off -runs RUNS -seed SEED
//
// at any worker width. Spec is its one normalize-and-check, and
// Spec.CellSpec its one projection from an enumerated cell.
type CellSpec struct {
	// World is the environment name (factory, farm, sparse, dense; default
	// sparse).
	World string `json:"world,omitempty"`
	// Fault is the fault target, "family[:kind]" (required): kernel, state,
	// sensor, actuator, wind, optionally restricted to one mechanism
	// (e.g. "sensor:ray_dropout").
	Fault string `json:"fault"`
	// Severity is one severity level: "low", "med", "high", or
	// "name=scale" (default "high").
	Severity string `json:"severity,omitempty"`
	// Detector is "none", "gad", or "aad" (default "none").
	Detector string `json:"detector,omitempty"`
	// Recovery enables recovery actions for detector-bearing cells
	// (ignored — collapsed off — when Detector is "none").
	Recovery bool `json:"recovery,omitempty"`
	// Runs is the number of missions (default 4).
	Runs int `json:"runs,omitempty"`
	// Seed is the matrix seed the cell and mission seeds derive from.
	Seed int64 `json:"seed,omitempty"`
	// MaxMissionS overrides the mission time budget (0 = pipeline default).
	MaxMissionS float64 `json:"max_mission_s,omitempty"`
	// TrainEnvs is the training-environment count for gad/aad (default 12).
	TrainEnvs int `json:"train_envs,omitempty"`
	// MapSeed selects the golden-map mode: "off" (default, exact) or "memo"
	// (approximate mode, Spec.MapSeed).
	MapSeed string `json:"map_seed,omitempty"`
	// NearFieldStride, when > 1, enables near-field ray subsampling
	// (approximate mode).
	NearFieldStride int `json:"near_field_stride,omitempty"`
	// Record persists every mission as a replayable recording under the
	// campaign server's -record-dir; recorded jobs survive server restarts.
	// A dispatch worker records nothing and refuses a unit that asks.
	Record bool `json:"record,omitempty"`
}

// Spec fills cs's defaults and checks it. It returns cs normalized, which
// is what a job manifest and job status carry, and the one-cell Spec that
// cs names, normalized and through Spec.Check.
func (cs CellSpec) Spec() (CellSpec, Spec, error) {
	if cs.Severity == "" {
		cs.Severity = "high"
	}
	targets, err := ParseTargets(cs.Fault)
	if err != nil {
		return cs, Spec{}, err
	}
	sevs, err := ParseSeverities(cs.Severity)
	if err != nil {
		return cs, Spec{}, err
	}
	if len(targets) != 1 || len(sevs) != 1 {
		return cs, Spec{}, fmt.Errorf("matrix: a cell spec names one cell; got %d fault targets and %d severities", len(targets), len(sevs))
	}
	spec := Spec{
		Targets:         targets,
		Severities:      sevs,
		Recoveries:      []bool{cs.Recovery},
		Runs:            cs.Runs,
		Seed:            cs.Seed,
		MaxMissionS:     cs.MaxMissionS,
		TrainEnvs:       cs.TrainEnvs,
		MapSeed:         cs.MapSeed,
		NearFieldStride: cs.NearFieldStride,
	}
	// An empty name leaves the axis at its default.
	if cs.World != "" {
		spec.Worlds = []string{cs.World}
	}
	if cs.Detector != "" {
		spec.Detectors = []string{cs.Detector}
	}
	spec = spec.normalized()
	if err := spec.Check(); err != nil {
		return cs, Spec{}, err
	}
	cs.World, cs.Detector = spec.Worlds[0], spec.Detectors[0]
	cs.Runs, cs.TrainEnvs, cs.MapSeed = spec.Runs, spec.TrainEnvs, spec.MapSeed
	return cs, spec, nil
}

// CellSpec projects cell c of the checked spec s onto the single-cell wire
// form. The severity travels as "name=scale" with the shortest scale that
// round-trips, so a named or custom level re-parses to the same name —
// and so the same cell seed — and the same scale bits.
func (s Spec) CellSpec(c Cell) CellSpec {
	return CellSpec{
		World:           c.World,
		Fault:           c.Target().String(),
		Severity:        c.Severity.Name + "=" + strconv.FormatFloat(c.Severity.Scale, 'g', -1, 64),
		Detector:        c.Detector,
		Recovery:        c.Recovery,
		Runs:            s.Runs,
		Seed:            s.Seed,
		MaxMissionS:     s.MaxMissionS,
		TrainEnvs:       s.TrainEnvs,
		MapSeed:         s.MapSeed,
		NearFieldStride: s.NearFieldStride,
	}
}

// SplitList reads a comma-separated list flag: its entries, trimmed of
// white space, with empty ones dropped (nil for an empty value). Every list
// flag of the CLIs is read this way.
func SplitList(s string) []string { return strings.Fields(strings.ReplaceAll(s, ",", " ")) }

// AxisFlags defines on fs the eleven flags that state a matrix — its axes,
// runs, seeds and approximate-mode knobs — as `mavfi matrix` and
// `mavfi-server -dispatch` both spell them. It returns the function that
// builds the Spec from their values once fs has been parsed; that function
// refuses only what does not parse, and Spec.Check judges the rest.
func AxisFlags(fs *flag.FlagSet) func() (Spec, error) {
	var (
		worlds     = fs.String("worlds", "sparse", "comma-separated environments: factory, farm, sparse, dense")
		families   = fs.String("families", "all", "comma-separated fault targets (family[:kind], e.g. sensor,actuator:thrust_loss) or all")
		severities = fs.String("severities", "low,high", "comma-separated severity levels (low, med, high, or name=scale)")
		detectors  = fs.String("detectors", "none", "comma-separated detectors: none, gad, aad")
		recoveries = fs.String("recoveries", "on", "recovery axis for detector cells: on, off, or on,off")
		runs       = fs.Int("runs", 4, "missions per cell")
		seed       = fs.Int64("seed", 1, "matrix seed (every cell and mission seed derives from it)")
		train      = fs.Int("train", 12, "training environments when gad/aad is on the detector axis")
		maxMission = fs.Float64("max-mission", 0, "mission time budget in sim seconds (0 = pipeline default)")
		mapSeed    = fs.String("map-seed", "off", "golden-map mode: off (exact) or memo (fork a precomputed map per mission and skip rays whose evidence is saturated)")
		nearStride = fs.Int("near-stride", 0, "near-field ray subsampling stride (0 or 1 = off; >1 is approximate mode)")
	)
	return func() (Spec, error) {
		targets, err := ParseTargets(*families)
		if err != nil {
			return Spec{}, err
		}
		sevs, err := ParseSeverities(*severities)
		if err != nil {
			return Spec{}, err
		}
		var recs []bool
		for _, part := range strings.Split(*recoveries, ",") {
			switch part = strings.TrimSpace(part); part {
			case "on", "off":
				recs = append(recs, part == "on")
			case "":
			default:
				return Spec{}, fmt.Errorf("matrix: unknown recovery mode %q (want on, off)", part)
			}
		}
		return Spec{
			Worlds:          SplitList(*worlds),
			Targets:         targets,
			Severities:      sevs,
			Detectors:       SplitList(*detectors),
			Recoveries:      recs,
			Runs:            *runs,
			Seed:            *seed,
			MaxMissionS:     *maxMission,
			TrainEnvs:       *train,
			MapSeed:         *mapSeed,
			NearFieldStride: *nearStride,
		}, nil
	}
}
