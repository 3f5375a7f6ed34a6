// Package dispatch shards a campaign matrix across worker processes with
// the recovery discipline the paper demands of the vehicles themselves:
// detect the anomaly, retry deterministically, verify nothing changed.
//
// A dispatcher enumerates a matrix.Spec's cells and fans them out as
// per-cell work units to registered worker shards over HTTP. Each
// assignment holds a lease with a deadline and a monotonically increasing
// fencing token; lost, expired, errored, or panicked assignments are
// retried on surviving shards under capped exponential backoff, and when no
// shard is healthy the dispatcher degrades to local in-process execution.
// Because every cell is a pure function of its identity seed (the matrix
// determinism contract), a retry on a different shard — or locally — cannot
// change a single byte of the result, so the reassembled cell.csv and
// summary.csv are byte-identical to a single-process `mavfi matrix` run
// regardless of shard count, worker deaths, or retry history. That property
// is enforced by the package's chaos harness: an injectable shard transport
// for in-test fault injection plus a real-process test that SIGKILLs a
// worker mid-sweep and restarts the dispatcher mid-campaign.
package dispatch

import (
	"fmt"

	"mavfi/internal/campaign"
	"mavfi/internal/campaign/matrix"
	"mavfi/internal/faultinject"
	"mavfi/internal/qof"
)

// CellSpec is the wire form of one dispatched matrix cell: the cell's axis
// coordinates plus the campaign-wide knobs a worker needs to reproduce the
// cell exactly as the full matrix would have run it. Everything in here is
// part of the cell's identity or a deterministic input, so two shards given
// the same CellSpec return bit-identical results.
type CellSpec struct {
	// World is the environment name.
	World string `json:"world"`
	// Fault is the cell's fault target, "family[:kind]".
	Fault string `json:"fault"`
	// SeverityName and SeverityScale carry the severity coordinate verbatim
	// (names may be custom "name=scale" pairs, so both halves ship).
	SeverityName  string  `json:"severity_name"`
	SeverityScale float64 `json:"severity_scale"`
	// Detector and Recovery are the remaining axis coordinates.
	Detector string `json:"detector"`
	Recovery bool   `json:"recovery"`
	// Runs is missions per cell; Seed is the MATRIX seed (the cell seed
	// derives from it and the cell name on both sides identically).
	Runs int   `json:"runs"`
	Seed int64 `json:"seed"`
	// MaxMissionS, TrainEnvs, MapSeed, NearFieldStride are the campaign-wide
	// execution knobs that participate in determinism.
	MaxMissionS     float64 `json:"max_mission_s,omitempty"`
	TrainEnvs       int     `json:"train_envs"`
	MapSeed         string  `json:"map_seed,omitempty"`
	NearFieldStride int     `json:"near_field_stride,omitempty"`
}

// cellSpec projects one enumerated cell of a normalized spec onto the wire.
func cellSpec(spec matrix.Spec, c matrix.Cell) CellSpec {
	return CellSpec{
		World:           c.World,
		Fault:           c.Target().String(),
		SeverityName:    c.Severity.Name,
		SeverityScale:   c.Severity.Scale,
		Detector:        c.Detector,
		Recovery:        c.Recovery,
		Runs:            spec.Runs,
		Seed:            spec.Seed,
		MaxMissionS:     spec.MaxMissionS,
		TrainEnvs:       spec.TrainEnvs,
		MapSeed:         spec.MapSeed,
		NearFieldStride: spec.NearFieldStride,
	}
}

// matrixSpec rebuilds the single-cell matrix.Spec the worker executes — the
// same Spec shape the campaign server builds for a served job, so the
// dispatched path inherits the served-equals-CLI byte-identity contract.
func (cs CellSpec) matrixSpec() (matrix.Spec, error) {
	if cs.World == "" || cs.Fault == "" {
		return matrix.Spec{}, fmt.Errorf("dispatch: cell spec needs world and fault")
	}
	if _, err := matrix.World(cs.World); err != nil {
		return matrix.Spec{}, err
	}
	targets, err := matrix.ParseTargets(cs.Fault)
	if err != nil {
		return matrix.Spec{}, err
	}
	if len(targets) != 1 {
		return matrix.Spec{}, fmt.Errorf("dispatch: cell spec has %d fault targets, want 1", len(targets))
	}
	if cs.SeverityName == "" || !(cs.SeverityScale > 0) {
		return matrix.Spec{}, fmt.Errorf("dispatch: bad severity %q=%v", cs.SeverityName, cs.SeverityScale)
	}
	return matrix.Spec{
		Worlds:          []string{cs.World},
		Targets:         targets,
		Severities:      []matrix.Severity{{Name: cs.SeverityName, Scale: cs.SeverityScale}},
		Detectors:       []string{cs.Detector},
		Recoveries:      []bool{cs.Recovery},
		Runs:            cs.Runs,
		Seed:            cs.Seed,
		MaxMissionS:     cs.MaxMissionS,
		TrainEnvs:       cs.TrainEnvs,
		MapSeed:         cs.MapSeed,
		NearFieldStride: cs.NearFieldStride,
	}, nil
}

// WorkUnit is one leased cell assignment: what the dispatcher POSTs to a
// worker's /exec endpoint.
type WorkUnit struct {
	// Campaign identifies the dispatch campaign (stable across a dispatcher
	// restart with the same state directory).
	Campaign string `json:"campaign"`
	// Cell is the cell's index in the dispatcher's full enumeration, and
	// Name its canonical identity — echoed back for fencing and validation.
	Cell int    `json:"cell"`
	Name string `json:"name"`
	// Token is the lease fencing token: a dispatcher-wide monotonic counter
	// stamped on every assignment. A result carrying a token that is no
	// longer the cell's live lease is discarded, which is what makes a
	// zombie worker finishing after its lease expired harmless.
	Token uint64 `json:"token"`
	// Spec is the cell to execute.
	Spec CellSpec `json:"spec"`
}

// WorkResult is a worker's reply to one WorkUnit: the cell's mission
// metrics and fault plans (JSON float64s round-trip exactly, so reassembled
// CSVs are byte-identical to locally computed ones), plus any isolated
// mission panics with worker-local mission indices.
type WorkResult struct {
	Campaign string                  `json:"campaign"`
	Cell     int                     `json:"cell"`
	Name     string                  `json:"name"`
	Token    uint64                  `json:"token"`
	Results  []qof.Metrics           `json:"results"`
	Plans    []faultinject.FaultPlan `json:"plans"`
	Panics   []campaign.MissionPanic `json:"panics,omitempty"`
}
