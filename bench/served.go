package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mavfi/internal/campaign/matrix"
	"mavfi/internal/qof"
	"mavfi/internal/server"
)

// servedFaults is the job fault cycle: the physical families and the
// wp_x-restricted state family at high severity, path-tracking kernel faults
// at med (sweepTargets and protectedSpec say why those two are restricted).
var servedFaults = []struct{ fault, severity string }{
	{"sensor", "high"}, {"actuator", "high"}, {"wind", "high"},
	{"state:wp_x", "high"}, {"kernel:pid", "med"},
}

const servedRuns = 6

// jobSpec is job i's POST body: one 6-mission cell cycling worlds × faults,
// with a seed of its own (so kernel jobs calibrate afresh, as new seeds do
// on a real server). Every other job is recorded.
func (r *run) jobSpec(i int) server.JobSpec {
	f := servedFaults[(i/len(allWorlds))%len(servedFaults)]
	runs := servedRuns
	if r.quick {
		runs = 1
	}
	return server.JobSpec{
		World:    allWorlds[i%len(allWorlds)],
		Fault:    f.fault,
		Severity: f.severity,
		Runs:     runs,
		Seed:     roundSeed(r.seed, i),
		Record:   i%2 == 1,
	}
}

// matrixSpecOf is the single-cell matrix spec a job runs — the same spec the
// `mavfi matrix` CLI builds for the equivalent flags.
func matrixSpecOf(js server.JobSpec) matrix.Spec {
	return matrix.Spec{
		Worlds:     []string{js.World},
		Targets:    mustTargets(js.Fault),
		Severities: mustSeverities(js.Severity),
		Runs:       js.Runs,
		Seed:       js.Seed,
	}
}

// servedJob is one completed job as the client saw it.
type servedJob struct {
	index      int
	spec       server.JobSpec
	id         string
	ms         float64 // POST to the last CSV byte
	cellCSV    []byte
	summaryCSV []byte
}

// service is the served workload's set-up: an in-process server on a
// loopback listener, and the client both load generators share.
type service struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	dir    string
}

func (s *service) close() {
	s.ts.Close()
	s.srv.Close()
	os.RemoveAll(s.dir)
}

func startService() (*service, func(), error) {
	dir, err := os.MkdirTemp("", "mavfibench-served-")
	if err != nil {
		return nil, nil, err
	}
	srv, err := server.New(server.Config{Workers: loadWorkers, RecordDir: dir, WarmWorlds: allWorlds})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	s := &service{
		srv: srv,
		ts:  httptest.NewServer(srv.Handler()),
		// At most one connection per closed-loop client.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: loadWorkers, MaxIdleConnsPerHost: loadWorkers}},
		dir:    dir,
	}
	resp, err := s.client.Get(s.ts.URL + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		s.close()
		return nil, nil, err
	}
	return s, s.close, nil
}

// httpStats counts the workload's requests and times them by kind.
type httpStats struct {
	mu       sync.Mutex
	requests int
	failed   int
	byKind   map[string][]float64
}

func (h *httpStats) observe(kind string, ms float64, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.requests++
	if !ok {
		h.failed++
	}
	if h.byKind == nil {
		h.byKind = map[string][]float64{}
	}
	h.byKind[kind] = append(h.byKind[kind], ms)
}

// do sends one request and reads the whole body; a transport error or a
// non-2xx reply counts as a failed operation.
func (r *run) do(s *service, st *httpStats, kind, method, path string, body []byte, req string, parent int) ([]byte, bool) {
	sp := r.spans.begin("http "+kind, req, parent)
	defer r.spans.end(sp)
	t := time.Now()
	hreq, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	var out []byte
	ok := false
	if err == nil {
		var resp *http.Response
		resp, err = s.client.Do(hreq)
		if err == nil {
			out, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			ok = err == nil && resp.StatusCode/100 == 2
		}
	}
	st.observe(kind, msSince(t), ok)
	if !ok {
		r.rep.info("request %s %s failed: %v", method, path, err)
	}
	return out, ok
}

// submit runs job i through the API: POST ?wait=1, then both CSVs, and on
// every 4th job the SSE stream.
func (r *run) submit(s *service, st *httpStats, i int) (servedJob, bool) {
	js := r.jobSpec(i)
	job := servedJob{index: i, spec: js}
	req := fmt.Sprintf("job-%d", i)
	key := fmt.Sprintf("job %05d %s-%s-%s", i, js.World, js.Fault, js.Severity)
	r.prog.begin(key)
	defer r.prog.end(key)
	root := r.spans.begin("served job", req, 0)
	defer r.spans.end(root)

	body, _ := json.Marshal(js)
	t := time.Now()
	out, ok := r.do(s, st, "post", http.MethodPost, "/jobs?wait=1", body, req, root)
	if !ok {
		return job, false
	}
	var status server.Status
	if err := json.Unmarshal(out, &status); err != nil || status.State != server.JobDone {
		r.rep.info("job %d: state %q: %v", i, status.State, err)
		return job, false
	}
	job.id = status.ID
	if job.cellCSV, ok = r.do(s, st, "csv", http.MethodGet, "/jobs/"+job.id+"/cell.csv", nil, req, root); !ok {
		return job, false
	}
	if job.summaryCSV, ok = r.do(s, st, "csv", http.MethodGet, "/jobs/"+job.id+"/summary.csv", nil, req, root); !ok {
		return job, false
	}
	job.ms = msSince(t)
	if i%4 == 0 {
		if _, ok = r.do(s, st, "stream", http.MethodGet, "/jobs/"+job.id+"/stream", nil, req, root); !ok {
			return job, false
		}
	}
	return job, true
}

// cellMissions parses a cell CSV's outcome and flight_s columns.
func cellMissions(b []byte) ([]qof.Metrics, error) {
	rows, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil {
		return nil, err
	}
	var out []qof.Metrics
	for _, row := range rows[1:] {
		if len(row) < 4 {
			return nil, fmt.Errorf("short CSV row %q", row)
		}
		m := qof.Metrics{}
		for o := 0; o < qof.NumOutcomes; o++ {
			if qof.Outcome(o).String() == row[2] {
				m.Outcome = qof.Outcome(o)
			}
		}
		if m.FlightTimeS, err = strconv.ParseFloat(row[3], 64); err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// runServed drives the campaign service with two closed-loop clients (zero
// think time) until the timed phase ends, then checks served CSVs against
// matrix.RunOn of the same specs.
func runServed(r *run) *report {
	s, cleanup, err := measureSetup(r, startService)
	defer cleanup()
	if err != nil {
		r.rep.fail("setup: %v", err)
		return r.rep
	}
	st := &httpStats{}
	t := &tally{allocStart: allocBytes()}
	var (
		mu   sync.Mutex
		jobs []servedJob
		next atomic.Int64
		wg   sync.WaitGroup
	)
	maxJobs := int64(1 << 30)
	if r.quick {
		maxJobs = 4
	}
	start := time.Now()
	for c := 0; c < loadWorkers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < r.duration() || next.Load() < loadWorkers {
				i := next.Add(1) - 1
				if i >= maxJobs {
					return
				}
				job, ok := r.submit(s, st, int(i))
				if ok {
					mu.Lock()
					jobs = append(jobs, job)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	wall := msSince(start)
	t.allocAt = allocBytes()

	sort.Slice(jobs, func(a, b int) bool { return jobs[a].index < jobs[b].index })
	h := sha256.New()
	var jobMS []float64
	var missions []qof.Metrics
	for _, j := range jobs {
		h.Write(j.cellCSV)
		h.Write(j.summaryCSV)
		ms, err := cellMissions(j.cellCSV)
		if err != nil {
			r.rep.fail("job %d: parsing cell.csv: %v", j.index, err)
			continue
		}
		missions = append(missions, ms...)
		jobMS = append(jobMS, j.ms)
	}
	// One window: the closed loop runs without pauses for the whole phase.
	t.add(missions, wall)
	copy(t.digest[:], h.Sum(nil))
	r.rep.metric("job_ms_p90", "ms", quantile(jobMS, 0.9))
	t.report(r, jobMS)
	r.rep.Attempted += st.requests
	r.rep.Failed += st.failed

	ref := r.checkServed(jobs)
	if r.trace {
		r.serverLayers(s, st, jobs, ref)
		var cells []flown
		for _, j := range jobs {
			if res := ref[j.index]; res != nil && len(cells) < 24 {
				cells = append(cells, flownCells(matrixSpecOf(j.spec), res)...)
			}
		}
		r.attribute(matrix.NewAssets(), cells, t.missions, wall)
	}
	return r.rep
}

// checkServed requires the CSVs of every third served job (recorded and
// unrecorded ones alike) to equal matrix.RunOn of the same spec, and returns
// those reference results by job index.
func (r *run) checkServed(jobs []servedJob) map[int]*matrix.Result {
	assets := matrix.NewAssets()
	ref := map[int]*matrix.Result{}
	checked, bad := 0, 0
	for _, j := range jobs {
		if j.index%3 != 0 {
			continue
		}
		spec := matrixSpecOf(j.spec)
		spec.Workers = loadWorkers
		res, err := matrix.RunOn(context.Background(), spec, assets)
		if err != nil {
			r.rep.fail("job %d reference: %v", j.index, err)
			continue
		}
		ref[j.index] = res
		checked++
		if res.Cells[0].CSV() != string(j.cellCSV) || res.SummaryCSV() != string(j.summaryCSV) {
			bad++
			r.rep.fail("job %d (%s): served CSVs differ from matrix.RunOn", j.index, j.id)
		}
	}
	r.rep.info("check served: %d of %d checked jobs (every third of %d) byte-identical to matrix.RunOn", checked-bad, checked, len(jobs))
	return ref
}

// serverLayers splits served job time into queue wait and server overhead.
// Solo jobs (one client, empty queue) time the job path alone; matrix.RunOn
// of the same spec on warm worlds is the work inside it.
func (r *run) serverLayers(s *service, st *httpStats, jobs []servedJob, ref map[int]*matrix.Result) {
	solo := 8
	if r.quick {
		solo = 2
	}
	base := 1 << 20 // job indices (and so seeds) the timed phase never used
	assets := matrix.NewAssets()
	if err := warmWorlds(assets, allWorlds); err != nil {
		r.rep.fail("server layers: %v", err)
		return
	}
	var soloMS, overhead, recOver, plainOver []float64
	for k := 0; k < solo; k++ {
		job, ok := r.submit(s, st, base+k)
		if !ok {
			r.rep.fail("solo job %d failed", k)
			return
		}
		spec := matrixSpecOf(job.spec)
		spec.Workers = loadWorkers
		t := time.Now()
		if _, err := matrix.RunOn(context.Background(), spec, assets); err != nil {
			r.rep.fail("solo reference: %v", err)
			return
		}
		over := job.ms - msSince(t)
		soloMS = append(soloMS, job.ms)
		overhead = append(overhead, over)
		if job.spec.Record {
			recOver = append(recOver, over)
		} else {
			plainOver = append(plainOver, over)
		}
	}
	var jobMS []float64
	for _, j := range jobs {
		jobMS = append(jobMS, j.ms)
	}
	r.rep.layer("server.solo_job_ms_p50", "ms", median(soloMS))
	r.rep.layer("server.overhead_ms_p50", "ms", median(overhead))
	r.rep.layer("server.queue_wait_ms_p50", "ms", median(jobMS)-median(soloMS))
	r.rep.layer("server.record_overhead_ms", "ms", mean(recOver)-mean(plainOver))
	st.mu.Lock()
	r.rep.layer("server.csv_get_ms_p50", "ms", median(st.byKind["csv"]))
	r.rep.layer("server.stream_ms_p50", "ms", median(st.byKind["stream"]))
	st.mu.Unlock()
}
