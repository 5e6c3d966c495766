# Build / verification entry points. `make check` is the verification gate:
# gofmt (any unformatted file fails it), go vet, the library panic lint (scripts/panic_lint.sh) and -race tests over
# every package that spawns or feeds the shared worker pool — including the
# cancellation tests, which assert that aborted solves leak no pool tokens.

GO ?= go

.PHONY: build test fmt-check vet race check panic-lint cover bench-parallel bench-hotpath bench-obs-overhead bench-scale bench-scale-smoke bench-fleet bench-fleet-smoke bench-supervise bench-supervise-smoke bench-serve bench-serve-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# gofmt -l lists every unformatted file; any output fails the gate.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt: unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -short ./internal/parallel ./internal/game ./internal/community ./internal/ceopt ./internal/core ./internal/obs ./internal/fleet ./internal/supervise ./internal/serve

panic-lint:
	sh scripts/panic_lint.sh

check: fmt-check vet panic-lint race

# Statement-coverage floor (>=70%) for the hot-path solver packages
# (internal/dpsched, internal/game, internal/ceopt, internal/meterstate), the
# fleet/supervise/serve/attack layers, the shared command lifecycle
# (internal/cli) and the spec lowering (internal/scenario) — see DESIGN.md §10.
cover:
	sh scripts/cover_check.sh

# Regenerate the numbers behind BENCH_game_parallel.json.
bench-parallel:
	$(GO) test -run '^$$' -bench 'BenchmarkGameSolveParallel' -benchmem .

# Regenerate the numbers behind BENCH_hotpath.json: the reusable-workspace
# solve vs the allocating baseline, and the active-set on/off pair.
bench-hotpath:
	$(GO) test -run '^$$' -bench 'BenchmarkGameSolveParallel1$$|BenchmarkGameSolveWorkspace$$|BenchmarkGameSolveActiveSet' -benchmem -benchtime 1s .

# Observability overhead guard: events-on vs events-off on the parallel game
# solve; fails above the DESIGN.md §9 budget and regenerates
# BENCH_obs_overhead.json.
bench-obs-overhead:
	sh scripts/bench_obs_overhead.sh

# Regenerate BENCH_scale.json: the customers-vs-ns/op curve of the
# hierarchical solver at the paper's sizes. TestWriteBenchScale fails the run
# if the curve is not monotone in N or grows quadratically or worse.
bench-scale:
	$(GO) test -run 'TestWriteBenchScale$$' -v . -args -bench-scale-out BENCH_scale.json -bench-scale-sizes 24,100,500

# CI smoke for the scale curve: tiny sizes, same harness and assertions
# (file produced, curve monotone, sub-quadratic growth), seconds not minutes.
bench-scale-smoke:
	$(GO) test -run 'TestWriteBenchScale$$' . -args -bench-scale-out bench_scale_smoke.json -bench-scale-sizes 8,16,32
	test -s bench_scale_smoke.json
	rm -f bench_scale_smoke.json

# Regenerate BENCH_fleet.json: the total-meters-vs-ns/op curve of the fleet
# day loop, ending at 10k meters (20 communities of 500). TestWriteBenchFleet
# fails the run if the curve is not monotone in total meters or grows
# quadratically or worse.
bench-fleet:
	$(GO) test -run 'TestWriteBenchFleet$$' -v -timeout 60m . -args -bench-fleet-out BENCH_fleet.json -bench-fleet-shapes 2x500,8x500,20x500

# CI smoke for the fleet curve: tiny shapes, same harness and assertions.
bench-fleet-smoke:
	$(GO) test -run 'TestWriteBenchFleet$$' . -args -bench-fleet-out bench_fleet_smoke.json -bench-fleet-shapes 2x8,4x8,8x8
	test -s bench_fleet_smoke.json
	rm -f bench_fleet_smoke.json

# Regenerate BENCH_supervise.json: wall clock of full supervised fleet runs
# (cmd/nmfleet spawning one nmdetect worker process per community) across
# 1/2/4 concurrent worker processes. The paper shape is 20x500 = 10k meters;
# on small hosts record a smaller shape — the output is self-describing
# (shape, days, GOMAXPROCS, CPU count all land in the JSON).
bench-supervise:
	$(GO) test -run 'TestWriteBenchSupervise$$' -v -timeout 60m . -args -bench-supervise-out BENCH_supervise.json -bench-supervise-shape 20x500 -bench-supervise-procs 1,2,4

# CI smoke for the supervision curve: a tiny fleet through the real
# supervisor and worker binaries, same harness and assertions (file produced,
# zero failed batches), seconds not minutes.
bench-supervise-smoke:
	$(GO) test -run 'TestWriteBenchSupervise$$' . -args -bench-supervise-out bench_supervise_smoke.json -bench-supervise-shape 3x8 -bench-supervise-procs 1,2
	test -s bench_supervise_smoke.json
	rm -f bench_supervise_smoke.json

# Regenerate BENCH_serve.json: sustained readings/sec ingested by the real
# nmserve daemon over loopback HTTP across 1/4/16 concurrent sessions, with
# per-day checkpoint durability inside the timer. The harness asserts the
# rate does not collapse as sessions grow.
bench-serve:
	$(GO) test -run 'TestWriteBenchServe$$' -v -timeout 30m . -args -bench-serve-out BENCH_serve.json -bench-serve-sessions 1,4,16

# CI smoke for the serving curve: fewer, smaller sessions through the real
# daemon, same harness and assertions (file produced, throughput sane).
bench-serve-smoke:
	$(GO) test -run 'TestWriteBenchServe$$' . -args -bench-serve-out bench_serve_smoke.json -bench-serve-sessions 1,2 -bench-serve-days 2
	test -s bench_serve_smoke.json
	rm -f bench_serve_smoke.json
