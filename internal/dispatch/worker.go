package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"mavfi/internal/campaign/matrix"
)

// WorkerConfig configures a worker shard.
type WorkerConfig struct {
	// Workers sizes the campaign pool each unit runs on (0 = default).
	// Worker width never changes result bytes, only wall-clock time.
	Workers int
}

// Worker executes dispatched work units on a process-lifetime warm-asset
// cache, exactly as the campaign server executes jobs: a unit is a
// single-cell matrix.Spec run through matrix.RunOn, so a dispatched cell's
// results are byte-identical to the same cell inside a single-process
// matrix run. A worker builds the golden maps its units fly itself, on
// first use, as every other process does. Safe for concurrent units — the
// asset cache serializes cold builds and every cached asset is immutable or
// cloned per mission.
type Worker struct {
	cfg    WorkerConfig
	assets *matrix.Assets
	busy   atomic.Int64
}

// NewWorker builds a worker shard with a fresh warm-asset cache.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg, assets: matrix.NewAssets()}
}

// Busy reports the number of units currently executing.
func (w *Worker) Busy() int64 { return w.busy.Load() }

// Exec runs one work unit to completion (or ctx cancellation — the lease
// deadline arrives here as the request context, so an expired lease stops
// burning worker CPU). The returned result echoes the unit's campaign,
// cell, name, and fencing token.
func (w *Worker) Exec(ctx context.Context, unit WorkUnit) (*WorkResult, error) {
	w.busy.Add(1)
	defer w.busy.Add(-1)

	if unit.Spec.Record {
		return nil, fmt.Errorf("dispatch: unit %s asks for recording, which a worker does not do", unit.Name)
	}
	_, spec, err := unit.Spec.Spec()
	if err != nil {
		return nil, err
	}
	if name := matrix.Cells(spec)[0].Name(); unit.Name != "" && name != unit.Name {
		return nil, fmt.Errorf("dispatch: unit cell name %q does not match spec cell %q", unit.Name, name)
	}
	spec.Workers = w.cfg.Workers

	res, err := matrix.RunOn(ctx, spec, w.assets)
	if err != nil {
		return nil, err
	}
	cr := res.Cells[0]
	return &WorkResult{
		Campaign: unit.Campaign,
		Cell:     unit.Cell,
		Name:     cr.Cell.Name(),
		Token:    unit.Token,
		Results:  cr.Campaign.Results,
		Plans:    cr.Plans,
		Panics:   res.Panics,
	}, nil
}

// Handler returns the worker shard's HTTP API:
//
//	POST /exec     execute one WorkUnit, reply with its WorkResult
//	GET  /healthz  liveness (the dispatcher's heartbeat probe)
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(rw, "ok busy=%d\n", w.Busy())
	})
	mux.HandleFunc("POST /exec", func(rw http.ResponseWriter, r *http.Request) {
		var unit WorkUnit
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&unit); err != nil {
			http.Error(rw, fmt.Sprintf("decoding work unit: %v", err), http.StatusBadRequest)
			return
		}
		res, err := w.Exec(r.Context(), unit)
		if err != nil {
			// The lease context cancels mid-flight work; everything else is
			// a unit-level failure the dispatcher will retry elsewhere.
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(res)
	})
	return mux
}
