# Make targets mirror .github/workflows/ci.yml exactly, so local runs and CI
# cannot drift: CI jobs invoke these same targets.

GO ?= go

.PHONY: build vet fmt fmt-check test test-full test-race race-freelist bench bench-smoke bench-module bench-plan bench-probes bench-insert bench-seed docs-check record replay replay-verify matrix-smoke server-smoke dispatch-smoke approx-smoke hang-smoke fuzz-smoke cover staticcheck vulncheck

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt rewrites; fmt-check (used by CI) only verifies.
fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# test is the CI test job: reduced campaign scales via testing.Short().
test:
	$(GO) test -short ./...

# test-full runs the full-fidelity campaigns (what the seed suite ran).
test-full:
	$(GO) test ./...

# test-race doubles as the proof that the parallel campaign engine is
# data-race-free.
test-race:
	$(GO) test -race -short ./...

# race-freelist repeats the mission tree free-list gate under the race
# detector: concurrent exact and seeded missions across two worlds, more of
# them than the list's cap, must match a sequential run.
race-freelist:
	$(GO) test -race -count=10 -run '^TestFreeListConcurrentMissions$$' ./internal/pipeline

# bench regenerates every paper table/figure headline metric, the campaign-
# engine scaling curve, and the perception micro-benchmarks, and records the
# machine-readable perf trajectory in $(BENCH_JSON) (benchmark → ns/op,
# allocs/op, custom metrics). Scale campaigns with MAVFI_BENCH_RUNS.
BENCH_JSON ?= BENCH_PR27.json
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./... > $(BENCH_JSON).raw
	$(GO) run ./cmd/benchjson -o $(BENCH_JSON) < $(BENCH_JSON).raw
	@rm -f $(BENCH_JSON).raw

# bench-smoke proves every benchmark still compiles and runs (one iteration
# each); CI runs this so benchmarks cannot rot.
bench-smoke:
	MAVFI_BENCH_RUNS=2 $(GO) test -bench . -benchtime=1x -run '^$$' ./...

# bench-module vets and tests the benchmark (bench/, its own Go module that
# builds this one from the parent directory, so `go build ./...` and
# `go test ./...` never compile it): a change to an API the benchmark calls
# fails here, not in the next benchmark run.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-plan is the planner-regression smoke: one iteration of BenchmarkPlan
# (the RRT* + spatial-index + map-query hot path PR 4 optimised), cheap
# enough for every PR.
bench-plan:
	$(GO) test -bench 'BenchmarkPlan$$' -benchtime=1x -run '^$$' ./internal/pipeline

# bench-insert is the mapping-kernel smoke: one iteration each of the fused
# scan insertion into a warm map, the test-only map oracle it is checked
# against, the cold (exact-map) campaign cell whose missions Reset recycled
# trees, the memo + near-stride 2 cell whose missions ForkInto them, the
# four preset worlds' golden-map build (one walk per sweep scan, folded),
# the same worlds' sweep scans inserted once each into maps that start
# empty (where most carve steps take the miss-chain path), and each world's
# golden seed forked into a recycled tree (ns and bytes copied per fork),
# so a regression in the carve, the store, the fold or either tree
# lifecycle path fails as its own CI step.
bench-insert:
	$(GO) test -bench 'Benchmark(InsertCloud|InsertRayReference)$$' -benchtime=1x -run '^$$' ./internal/octomap
	$(GO) test -bench 'BenchmarkCampaignCell/(cold|memo-near2)$$|Benchmark(BuildMapSeed|InsertColdMap|ForkSeed)$$' -benchtime=1x -run '^$$' ./internal/pipeline

# bench-seed is the PR 9 golden-map headline: one campaign cell flown cold /
# memo / memo+stride (BenchmarkCampaignCell). BENCH_PR20.json has cold at
# 68.0 ms, memo at 57.5 ms (15% faster) and memo+stride at 54.8 ms.
bench-seed:
	$(GO) test -bench 'BenchmarkCampaignCell' -benchmem -benchtime=6x -run '^$$' ./internal/pipeline

# bench-probes is the collision-probe regression smoke: one iteration each of
# the octomap segment queries the PR 5 fused walker + occupancy summary
# optimised, planner-length segments (anywhere, and in the cruise band over
# a mapped floor, where the prescan answers by z-layer) and the collision
# check's look-ahead replayed from recorded missions (where FirstBlocked
# steps over blocks whose crossed layers are empty), so a probe-path
# regression fails as its own CI step.
bench-probes:
	$(GO) test -bench 'Benchmark(SegmentFree|SegmentFreeCruise|FirstBlocked|FirstBlockedLookahead)$$' -benchtime=1x -run '^$$' ./internal/octomap

# docs-check is the CI documentation gate: every internal/ package must have
# a godoc package comment, relative Markdown links in *.md and docs/ must
# resolve, and every test, fuzz target or benchmark that README.md or
# docs/ names in backticks must be a function in some _test.go.
docs-check:
	$(GO) run ./cmd/docscheck

# record captures a small demo campaign (four planner-fault missions and
# their golden baseline) as replayable mission logs under
# $(RECORD_DIR)/golden and $(RECORD_DIR)/injection; replay byte-verifies
# every recording in the tree.
RECORD_DIR ?= data/demo
record:
	$(GO) run ./cmd/mavfi -kernel planner -runs 4 -seed 1 -record-dir $(RECORD_DIR)

replay:
	$(GO) run ./cmd/mavfi-replay -verify $(RECORD_DIR)

# replay-verify is the CI determinism gate. mavfi -record-dir records four
# fault-injected cells (kfault, sfault, senfault, actfault), each under
# injection/ beside the nominal cell under golden/, twice: once with 1
# campaign worker, once with 4. The gate then (a) requires the two widths to
# have written the same files, byte-identical (diff -r), and (b)
# re-simulates every recording from its header, failing on the first byte
# of divergence between the recomputed and recorded tick streams, and fails
# unless -verify found and passed as many recordings as were written.
replay-verify:
	rm -rf data/ci && mkdir -p data/ci/bin
	$(GO) build -o data/ci/bin/ ./cmd/mavfi ./cmd/mavfi-replay
	@set -e; for w in 1 4; do \
		data/ci/bin/mavfi -kernel planner -runs 3 -seed 1 -workers $$w -record-dir data/ci/w$$w/kfault; \
		data/ci/bin/mavfi -state wp_x -runs 3 -seed 1 -workers $$w -record-dir data/ci/w$$w/sfault; \
		data/ci/bin/mavfi -fault sensor -runs 3 -seed 1 -workers $$w -record-dir data/ci/w$$w/senfault; \
		data/ci/bin/mavfi -fault actuator -runs 3 -seed 1 -workers $$w -record-dir data/ci/w$$w/actfault; \
	done
	diff -r data/ci/w1 data/ci/w4
	@echo "worker-width byte-identity: ok"
	data/ci/bin/mavfi-replay -verify data/ci/w1 | tee data/ci/verify.log
	@n=$$(find data/ci/w1 -name '*.rec' | wc -l); \
	grep -qx "verified $$n recordings: $$n ok, 0 incomplete, 0 failed" data/ci/verify.log || \
		{ echo "-verify did not pass all $$n recordings written"; exit 1; }

# matrix-smoke is the CI campaign-matrix determinism gate: a tiny matrix
# (2 worlds x 3 zoo families x 2 severities, 2 missions per cell) run at 1
# and 4 workers, requiring every per-cell CSV and the summary to be
# byte-identical across widths. No -deadline: wall-clock deadlines are the
# one knob that trades the byte-identity invariant for runaway protection.
matrix-smoke:
	rm -rf data/matrix
	$(GO) run ./cmd/mavfi matrix -worlds sparse,factory -families sensor,actuator,wind \
		-severities low,high -runs 2 -seed 1 -workers 1 -csv-dir data/matrix/w1
	$(GO) run ./cmd/mavfi matrix -worlds sparse,factory -families sensor,actuator,wind \
		-severities low,high -runs 2 -seed 1 -workers 4 -csv-dir data/matrix/w4
	diff -r data/matrix/w1 data/matrix/w4
	@echo "matrix worker-width byte-identity: ok"

# server-smoke is the CI campaign-service gate: boot mavfi-server, submit two
# jobs over HTTP without waiting, so both are admitted at once and share the
# server's pool of mission slots; poll until both are done, probe /healthz
# and /metrics, download each job's CSV artifacts, then byte-compare them
# against the same cells run through the `mavfi matrix` CLI at a different
# worker width. Proves the served-equals-CLI determinism contract end to end
# through a real TCP socket, with overlapping jobs, not just httptest.
SERVER_ADDR ?= 127.0.0.1:18080
server-smoke:
	rm -rf data/server && mkdir -p data/server
	$(GO) build -o data/server/mavfi-server ./cmd/mavfi-server
	@set -e; \
	data/server/mavfi-server -addr $(SERVER_ADDR) -workers 4 & \
	pid=$$!; trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do \
		curl -sf http://$(SERVER_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	curl -sf http://$(SERVER_ADDR)/healthz | grep -q ok; \
	curl -sf -X POST http://$(SERVER_ADDR)/jobs \
		-d '{"world":"sparse","fault":"sensor","severity":"high","runs":6,"seed":1}' >/dev/null; \
	curl -sf -X POST http://$(SERVER_ADDR)/jobs \
		-d '{"world":"sparse","fault":"wind","severity":"high","runs":3,"seed":1}' >/dev/null; \
	for job in job-0001 job-0002; do \
		for i in $$(seq 1 600); do \
			curl -sf http://$(SERVER_ADDR)/jobs/$$job > data/server/$$job.json; \
			grep -q '"state": "\(queued\|running\)"' data/server/$$job.json || break; \
			sleep 0.1; \
		done; \
		grep -q '"state": "done"' data/server/$$job.json; \
		curl -sf http://$(SERVER_ADDR)/jobs/$$job/cell.csv > data/server/$$job-cell.csv; \
		curl -sf http://$(SERVER_ADDR)/jobs/$$job/summary.csv > data/server/$$job-summary.csv; \
	done; \
	curl -sf http://$(SERVER_ADDR)/metrics | grep -q 'mavfi_jobs_done_total 2'; \
	curl -sf http://$(SERVER_ADDR)/metrics | grep -q 'mavfi_missions_total 9'
	$(GO) run ./cmd/mavfi matrix -worlds sparse -families sensor -severities high \
		-runs 6 -seed 1 -workers 1 -csv-dir data/server/cli-sensor
	$(GO) run ./cmd/mavfi matrix -worlds sparse -families wind -severities high \
		-runs 3 -seed 1 -workers 1 -csv-dir data/server/cli-wind
	cmp data/server/job-0001-cell.csv data/server/cli-sensor/cell-000-sparse-sensor-high-none-norec.csv
	cmp data/server/job-0001-summary.csv data/server/cli-sensor/summary.csv
	cmp data/server/job-0002-cell.csv data/server/cli-wind/cell-000-sparse-wind-high-none-norec.csv
	cmp data/server/job-0002-summary.csv data/server/cli-wind/summary.csv
	@echo "served-campaign byte-identity with two overlapping jobs: ok"

# dispatch-smoke is the CI sharded-dispatch gate: a dispatcher fans a small
# campaign matrix out to two worker shards over real TCP sockets, one worker
# is SIGKILLed as soon as the first cell result lands, and the campaign must
# still complete — the surviving shard absorbs the retries — with CSVs
# byte-identical to a single-process `mavfi matrix` run of the same spec.
# Proves the lease/retry/fencing contract end to end through real process
# death, not just the in-package chaos test. The campaign flies in memo
# mode with near-field stride 2, so every worker process builds its own
# golden maps and they must match the CLI's. First, a dispatcher given a
# spec the matrix check refuses (an unknown world) must exit 1 at once
# instead of retrying its first cell; `timeout` exits 124 if it hangs.
DISPATCH_ADDR ?= 127.0.0.1:18090
DISPATCH_W1 ?= 127.0.0.1:18091
DISPATCH_W2 ?= 127.0.0.1:18092
dispatch-smoke:
	rm -rf data/dispatch && mkdir -p data/dispatch
	$(GO) build -o data/dispatch/mavfi-server ./cmd/mavfi-server
	@code=0; timeout 20 data/dispatch/mavfi-server -dispatch -addr 127.0.0.1:0 \
		-worlds bogus -families wind -severities high -runs 1 || code=$$?; \
	if [ $$code -ne 1 ]; then echo "dispatch of an invalid spec exited $$code, want 1"; exit 1; fi; \
	echo "dispatch refuses an invalid spec at once: ok"
	@set -e; \
	data/dispatch/mavfi-server -worker -addr $(DISPATCH_W1) & w1=$$!; \
	data/dispatch/mavfi-server -worker -addr $(DISPATCH_W2) & w2=$$!; \
	trap 'kill $$w1 $$w2 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do \
		curl -sf http://$(DISPATCH_W1)/healthz >/dev/null 2>&1 && \
		curl -sf http://$(DISPATCH_W2)/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	curl -sf http://$(DISPATCH_W1)/healthz | grep -q ok; \
	curl -sf http://$(DISPATCH_W2)/healthz | grep -q ok; \
	data/dispatch/mavfi-server -dispatch -addr $(DISPATCH_ADDR) \
		-shards $(DISPATCH_W1),$(DISPATCH_W2) \
		-state-dir data/dispatch/state -csv-dir data/dispatch/out \
		-worlds sparse -families sensor,wind,actuator -severities low,high \
		-runs 2 -seed 1 -map-seed memo -near-stride 2 & d=$$!; \
	trap 'kill $$w1 $$w2 $$d 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 600); do \
		ls data/dispatch/state/cells/cell-*.json >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	kill -9 $$w1 2>/dev/null || true; \
	echo "SIGKILLed worker 1 mid-campaign"; \
	wait $$d; \
	kill $$w2 2>/dev/null || true
	$(GO) run ./cmd/mavfi matrix -worlds sparse -families sensor,wind,actuator \
		-severities low,high -runs 2 -seed 1 -map-seed memo -near-stride 2 \
		-workers 4 -csv-dir data/dispatch/cli
	diff -r data/dispatch/out data/dispatch/cli
	@echo "sharded-dispatch byte-identity under worker death: ok"

# approx-smoke is the CI approximate-mode gate: (a) a memo+strided matrix
# cell run at 1 and 4 workers must be byte-identical (golden maps are built
# before the fan-out, so worker width stays unobservable even in approximate
# mode), and (b) the equivalence/fidelity suites that pin the exact-mode
# digests and the approximate-mode deltas must pass.
approx-smoke:
	rm -rf data/approx
	$(GO) run ./cmd/mavfi matrix -worlds sparse -families sensor,wind -severities high \
		-runs 2 -seed 1 -workers 1 -map-seed memo -near-stride 2 -csv-dir data/approx/w1
	$(GO) run ./cmd/mavfi matrix -worlds sparse -families sensor,wind -severities high \
		-runs 2 -seed 1 -workers 4 -map-seed memo -near-stride 2 -csv-dir data/approx/w4
	diff -r data/approx/w1 data/approx/w4
	@echo "approximate-mode worker-width byte-identity: ok"
	$(GO) test -run 'TestEmptySeedReproducesGoldenDigests|TestZeroStrideBitIdentical' -count=1 ./internal/pipeline
	$(GO) test -run 'TestFidelity|TestSeededMatrix' -count=1 ./internal/campaign/matrix

# hang-smoke runs, each under a 120 s wall-clock cap, the commands that
# never finished while geom.WrapAngle reduced a huge yaw by 2π steps: the
# two `mavfi matrix` repros in bench/README.md and a recorded wp_yaw
# state-fault campaign. The binary is built first, so the cap times the runs
# alone and `timeout` stops the process that hangs.
hang-smoke:
	rm -rf data/hang && mkdir -p data/hang
	$(GO) build -o data/hang/mavfi ./cmd/mavfi
	timeout 120 data/hang/mavfi matrix -worlds farm -families kernel -severities high -runs 8 -seed 19
	timeout 120 data/hang/mavfi matrix -worlds sparse -families kernel -severities med0=0.6 \
		-detectors aad -recoveries off -train 50 -runs 2 -seed 29
	timeout 120 data/hang/mavfi -state wp_yaw -runs 6 -seed 1 -record-dir data/hang/wp_yaw
	@echo "former WrapAngle hangs finish: ok"

# fuzz-smoke gives each fuzz target a short budget on every PR, so the
# corpus-regression entries always replay and the targets cannot rot. Real
# crash-hunting runs use longer -fuzztime locally.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzRecordRead$$' -fuzztime=10s ./internal/record
	$(GO) test -run=NONE -fuzz='^FuzzParseTarget$$' -fuzztime=10s ./internal/campaign/matrix
	$(GO) test -run=NONE -fuzz='^FuzzParseSeverities$$' -fuzztime=5s ./internal/campaign/matrix
	$(GO) test -run=NONE -fuzz='^FuzzCellSpec$$' -fuzztime=10s ./internal/campaign/matrix
	$(GO) test -run=NONE -fuzz='^FuzzBlockExit$$' -fuzztime=10s ./internal/octomap
	$(GO) test -run=NONE -fuzz='^FuzzBundleKeys$$' -fuzztime=10s ./internal/octomap

# cover is the CI coverage gate: short-mode statement coverage over every
# internal/ and cmd/ package, failing below the floor measured when the gate
# was introduced (71.5% at the time; floor leaves slack for timing-dependent
# skips, never for deleted tests).
COVER_FLOOR ?= 71.0
cover:
	$(GO) test -short -coverprofile=coverage.out -coverpkg=./internal/...,./cmd/... ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { gsub(/%/, ""); print $$3 }'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t + 0 >= f + 0) }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# staticcheck / vulncheck run pinned analyzer versions via `go run`, so CI
# and local runs use identical tools with nothing to install.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...
