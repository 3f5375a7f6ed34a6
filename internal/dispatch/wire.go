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
	"mavfi/internal/campaign"
	"mavfi/internal/campaign/matrix"
	"mavfi/internal/faultinject"
	"mavfi/internal/qof"
)

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
	// Spec is the cell to execute, in the single-cell form the campaign
	// server's jobs use: Spec.CellSpec projects it from the dispatcher's
	// enumeration, and the worker re-parses it to the same cell.
	Spec matrix.CellSpec `json:"spec"`
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
