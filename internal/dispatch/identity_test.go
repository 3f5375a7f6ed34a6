package dispatch

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mavfi/internal/campaign/matrix"
	"mavfi/internal/faultinject"
	"mavfi/internal/pipeline"
	"mavfi/internal/testutil"
)

// identitySpec is a small real-mission matrix: sensor and wind families
// skip kernel calibration, so the whole sweep is a few hundred ms.
func identitySpec() matrix.Spec {
	return matrix.Spec{
		Worlds:     []string{"sparse"},
		Families:   []faultinject.Family{faultinject.FamilySensor, faultinject.FamilyWind},
		Severities: []matrix.Severity{{Name: "high", Scale: 1.0}},
		Runs:       2,
		Seed:       1,
	}
}

// resultCSVs renders a result the way `mavfi matrix -csv-dir` writes it.
func resultCSVs(res *matrix.Result) (map[string]string, string) {
	cells := make(map[string]string, len(res.Cells))
	for i := range res.Cells {
		cr := &res.Cells[i]
		cells[cr.Cell.CSVName()] = cr.CSV()
	}
	return cells, res.SummaryCSV()
}

// startWorkers launches n real worker shards on loopback HTTP and returns
// their addresses.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv := httptest.NewServer(NewWorker(WorkerConfig{Workers: 1, Logf: t.Logf}).Handler())
		t.Cleanup(srv.Close)
		addrs[i] = strings.TrimPrefix(srv.URL, "http://")
	}
	return addrs
}

func TestDispatchByteIdentityAcrossShardCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	ref, err := matrix.Run(context.Background(), identitySpec())
	if err != nil {
		t.Fatal(err)
	}
	refCells, refSummary := resultCSVs(ref)

	for _, shards := range []int{1, 2} {
		d := New(Config{
			Shards:       startWorkers(t, shards),
			DisableLocal: true,
			Logf:         t.Logf,
		})
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		res, err := d.Run(ctx, identitySpec())
		cancel()
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		cells, summary := resultCSVs(res)
		if len(cells) != len(refCells) {
			t.Fatalf("%d shards: %d cells, want %d", shards, len(cells), len(refCells))
		}
		for name, csv := range refCells {
			if cells[name] != csv {
				t.Errorf("%d shards: cell %s CSV differs from single-process run", shards, name)
			}
		}
		if summary != refSummary {
			t.Errorf("%d shards: summary CSV differs from single-process run", shards)
		}
	}
}

func TestDispatchLocalFallbackByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	// No shards registered at all: the dispatcher must degrade to local
	// in-process execution and still produce identical bytes.
	ref, err := matrix.Run(context.Background(), identitySpec())
	if err != nil {
		t.Fatal(err)
	}
	refCells, refSummary := resultCSVs(ref)

	d := New(Config{Workers: 1, Logf: t.Logf})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := d.Run(ctx, identitySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stat(); st.LocalRuns == 0 {
		t.Error("no local runs recorded despite an empty fleet")
	}
	cells, summary := resultCSVs(res)
	for name, csv := range refCells {
		if cells[name] != csv {
			t.Errorf("local fallback: cell %s CSV differs from single-process run", name)
		}
	}
	if summary != refSummary {
		t.Error("local fallback: summary CSV differs from single-process run")
	}
}

func TestDispatchSeedSharingByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real missions")
	}
	// Memoized golden-map mode: workers fetch the dispatcher's serialized
	// MAVFISEED snapshot instead of rebuilding it. The fetch must actually
	// happen, and the resulting CSVs must match the single-process run.
	spec := identitySpec()
	spec.MapSeed = "memo"
	ref, err := matrix.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	refCells, refSummary := resultCSVs(ref)

	d := New(Config{
		Shards:       startWorkers(t, 2),
		DisableLocal: true,
		Logf:         t.Logf,
	})
	var seedFetches atomic.Int64
	handler := d.Handler()
	dsrv := httptest.NewServer(countSeedFetches(handler, &seedFetches))
	t.Cleanup(dsrv.Close)
	d.cfg.SeedURL = dsrv.URL + "/seeds"

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := d.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if seedFetches.Load() == 0 {
		t.Error("no worker ever fetched the golden-map seed")
	}
	cells, summary := resultCSVs(res)
	for name, csv := range refCells {
		if cells[name] != csv {
			t.Errorf("seed sharing: cell %s CSV differs from single-process run", name)
		}
	}
	if summary != refSummary {
		t.Error("seed sharing: summary CSV differs from single-process run")
	}
}

// TestDispatchV1SeedFallsBackToLocalBuild pins what a worker does with a
// golden-map seed in the retired version-1 format, as a dispatcher from an
// older build would serve it: the decoder refuses it, the worker builds the
// seed locally, and the CSVs still match the single-process run. Its eight
// short missions take under a second, so it also runs in -short mode, the
// mode CI runs.
func TestDispatchV1SeedFallsBackToLocalBuild(t *testing.T) {
	spec := identitySpec()
	spec.MapSeed = "memo"
	ref, err := matrix.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	refCells, refSummary := resultCSVs(ref)

	w, err := matrix.World("sparse")
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if _, err := pipeline.EmptyMapSeed(w).Snapshot().WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	v1 := testutil.EmptySnapshotV1(v2.Bytes())

	d := New(Config{
		Shards:       startWorkers(t, 2),
		DisableLocal: true,
		Logf:         t.Logf,
	})
	var v1Served atomic.Int64
	handler := d.Handler()
	dsrv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/seeds/") {
			v1Served.Add(1)
			rw.Write(v1)
			return
		}
		handler.ServeHTTP(rw, r)
	}))
	t.Cleanup(dsrv.Close)
	d.cfg.SeedURL = dsrv.URL + "/seeds"

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := d.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if v1Served.Load() == 0 {
		t.Error("no worker ever fetched the version-1 seed")
	}
	cells, summary := resultCSVs(res)
	for name, csv := range refCells {
		if cells[name] != csv {
			t.Errorf("version-1 seed: cell %s CSV differs from single-process run", name)
		}
	}
	if summary != refSummary {
		t.Error("version-1 seed: summary CSV differs from single-process run")
	}
}

// countSeedFetches wraps the dispatcher handler, counting /seeds/ hits.
func countSeedFetches(h http.Handler, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/seeds/") {
			n.Add(1)
		}
		h.ServeHTTP(rw, r)
	})
}
