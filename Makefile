GO ?= go
GOFMT ?= gofmt

.PHONY: all build test verify vet fmt-check bench profile race fuzz-smoke clean serve-smoke trace-check model-check e2e perfbench-test examples sweep-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# serve-smoke builds ascoma-serve, starts it on an ephemeral port, hits
# /healthz, a figure endpoint twice (the second render must be a pure
# cache hit), and the async job API, and drains gracefully.
serve-smoke:
	$(GO) run ./cmd/ascoma-serve -smoke

# e2e drives an in-process multi-worker farm (e2e/harness) end to end:
# a grid job submitted to worker A renders as a figure on worker B with
# zero new simulations (peer-shared cache, then shared-disk), plus a load
# test pushing hundreds of concurrent jobs through two peered workers and
# asserting the measured /metrics hit rate.
e2e:
	$(GO) test -count=1 -v ./e2e/

# vet runs the stock go vet suite plus the repo's own analyzers. ascoma-vet
# loads the module once and runs nondet, errdrop and dirlint (which fails
# any escape hatch lacking a reason) on each package, in process. ./...
# covers the analyzers' own packages too, so the suite holds itself to
# the discipline it enforces. The allocation, stats and cancellation
# invariants are tests in go test ./...; see DESIGN.md §9.
vet:
	$(GO) vet ./...
	$(GO) build -o .bin/ascoma-vet ./cmd/ascoma-vet
	.bin/ascoma-vet ./...

# fmt-check fails when a Go file is not gofmt-formatted, and when gofmt
# itself fails (not on PATH, or a file it cannot parse). The analyzer
# corpora under testdata/ are left out: their layout is part of what
# their `want` comments pin. Build output directories are skipped too.
fmt-check:
	@out=$$(find . \( -name testdata -o -name .bench_build -o -name .bin -o -name .git \) -prune \
		-o -name '*.go' -print | xargs $(GOFMT) -l) || { echo "fmt-check: gofmt failed"; exit 1; }; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# perfbench-test vets and tests the benchmark (perfbench/, a module of its
# own that replaces ascoma with the parent directory). go build ./... and
# go test ./... never compile it, so an API change it depends on
# (runcache.Runner, report.Options, jobs.RunResult) fails here first.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

# trace-check proves flight-recorder determinism end to end through the
# real binaries: record the same observed run twice with ascoma-sim and
# require the trace files to be byte-identical, then decode one with
# ascoma-inspect so a codec regression fails loudly. The reference round
# does the same for a trace carrying the workload's reference streams
# (-refs), then replays it (-replay).
trace-check:
	$(GO) build -o .bin/ascoma-sim ./cmd/ascoma-sim
	$(GO) build -o .bin/ascoma-inspect ./cmd/ascoma-inspect
	.bin/ascoma-sim -arch ascoma -workload radix -pressure 70 -scale 16 -trace .bin/trace-a -epoch 5000 >/dev/null
	.bin/ascoma-sim -arch ascoma -workload radix -pressure 70 -scale 16 -trace .bin/trace-b -epoch 5000 >/dev/null
	cmp .bin/trace-a .bin/trace-b
	.bin/ascoma-inspect summary .bin/trace-a >/dev/null
	.bin/ascoma-sim -workload radix -scale 16 -trace .bin/trace-ra -refs >/dev/null
	.bin/ascoma-sim -workload radix -scale 16 -trace .bin/trace-rb -refs >/dev/null
	cmp .bin/trace-ra .bin/trace-rb
	.bin/ascoma-sim -replay .bin/trace-ra >/dev/null
	.bin/ascoma-inspect summary .bin/trace-ra >/dev/null

# examples runs every program under examples/ and fails on the first
# non-zero exit. go build ./... compiles them; only this target runs them.
examples:
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		$(GO) run ./$$d >/dev/null || { echo "examples: $$d failed"; exit 1; }; \
	done

# sweep-smoke runs the built sweep binary at scale 16 on uniform four
# ways: the figure with charts and SVG files, the figure as CSV, Tables
# 1-6, and the RAC sensitivity study. It fails on a non-zero exit or a
# missing SVG file.
sweep-smoke:
	$(GO) build -o .bin/sweep ./cmd/sweep
	rm -rf .bin/svg
	.bin/sweep -scale 16 -app uniform -svg .bin/svg -chart >/dev/null
	test -s .bin/svg/uniform_time.svg
	test -s .bin/svg/uniform_misses.svg
	.bin/sweep -scale 16 -app uniform -csv >/dev/null
	for n in 1 2 3 4 5 6; do .bin/sweep -scale 16 -app uniform -table $$n >/dev/null || exit 1; done
	.bin/sweep -scale 16 -app uniform -sensitivity rac >/dev/null

# model-check validates the analytical steady-state estimator
# (internal/estimate) against the 72-config golden matrix: every cell is
# simulated and the relative-execution-time error must stay inside the
# documented per-architecture bounds (see modelBounds in
# internal/estimate/modelcheck_test.go). The -v run prints the tracked
# per-figure error summary.
model-check:
	$(GO) test -run '^TestModelCheck$$' -count=1 -v ./internal/estimate/

# verify is the pre-commit gate: the gofmt check, vet (stock + ascoma-vet),
# build, the full test suite (including the golden determinism test and
# the allocation pins over the golden matrix), a short race-detector smoke
# over the internal packages, the estimator accuracy gate, the
# trace-determinism check, the examples, the sweep smoke, and the server
# smoke test.
verify: fmt-check vet
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race -short ./internal/...
	$(MAKE) model-check
	$(MAKE) trace-check
	$(MAKE) examples
	$(MAKE) sweep-smoke
	$(GO) run ./cmd/ascoma-serve -smoke

# bench runs the tracked go-test benchmarks for a benchstat comparison;
# see README.md ("Benchmarking") for the workflow. The first line and the
# estimator line use the flags the before/after numbers in BENCH_PR1,
# BENCH_PR3 and BENCH_PR8.json were collected with; the stream-generation
# and resident benchmarks have no recorded numbers there
# (the resident ones are in CHANGES.md). The end-to-end benchmark is
# perfbench (BENCHMARK.json).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkFig2FFT$$|BenchmarkHotPath$$|BenchmarkGridRow$$' -benchtime 3x -count 3 .
	$(GO) test -run '^$$' -bench 'BenchmarkEstimate$$|BenchmarkEstimateProfile$$' -benchmem -count 3 .
	$(GO) test -run '^$$' -bench 'BenchmarkStreamGeneration$$' -count 3 .
	$(GO) test -run '^$$' -bench 'BenchmarkResident$$' -benchtime 10x -count 3 .
	$(GO) test -run '^$$' -bench 'BenchmarkResidentQuantum' -benchtime 10x -count 3 .

# profile writes a CPU profile of the scale-8 figure regeneration on one
# job (sweep -scale 8 -jobs 1, the figures grid without the Runner's
# interleaving) to .bin/cpu.out and prints the hottest functions, so the
# CPU shares quoted in ROADMAP.md's ablation ledger can be reproduced.
profile:
	$(GO) build -o .bin/sweep ./cmd/sweep
	.bin/sweep -scale 8 -jobs 1 -cpuprofile .bin/cpu.out >/dev/null
	$(GO) tool pprof -top -nodecount=40 .bin/sweep .bin/cpu.out

race:
	$(GO) test -race ./...

# fuzz-smoke runs each fuzz target briefly over its seeded corpus plus a
# few seconds of generated inputs — a CI-sized differential check that the
# compiled workload streams still match the interpreted reference (also
# with walks partly skipped undecoded, and with walks repeated back to back
# or across barriers, which compile folds or interns), that a machine
# skipping verified walks in closed form — cruising whole quanta of them,
# folded walks included — matches the interpretive run, that the cruise
# horizon, which serves every cruising node's quanta up to the next event
# that can act in one step, matches it too on several nodes with their own
# walks, barriers, samples and a MaxCycles stop, that the trace decoder
# turns any input into a clean error or a canonical trace, that the
# pressure parser accepts only valid specs, that
# every run, job and estimate request body decodes into a 400 or a valid
# spec (with a canonical estimate reply key), never a 500 or a panic, that
# the runcache disk/peer payload decoder accepts only keyed, non-empty
# payloads that round-trip, that a cell filled from a run's pressure
# ceiling equals its simulation, and that every architecture a run
# certifies (Result.SameArchs) simulates to the same statistics, at the
# run's pressure and at any pressure up to its ceiling.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzCompiledMatchesInterpreted -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecording$$' -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzWalkSkip$$' -fuzztime 10s ./internal/machine
	$(GO) test -run '^$$' -fuzz '^FuzzCruiseHorizon$$' -fuzztime 10s ./internal/machine
	$(GO) test -run '^$$' -fuzz '^FuzzParsePressures$$' -fuzztime 10s ./internal/report
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSpecs$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResult$$' -fuzztime 10s ./internal/runcache
	$(GO) test -run '^$$' -fuzz '^FuzzPressureCeiling$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzSameArchs$$' -fuzztime 10s .

clean:
	$(GO) clean ./...
	rm -rf .bin
