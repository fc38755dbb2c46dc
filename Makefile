# Standard gates for this repo. `make ci` is what a change must pass.

GO ?= go

.PHONY: all ci vet build test race parallel-smoke chaos-smoke chaos-lossy-smoke oracle-smoke open-smoke bench-smoke serve-smoke bench-check-smoke bench bench-check bench-plot profile

all: ci

ci: vet build test race parallel-smoke chaos-smoke chaos-lossy-smoke oracle-smoke open-smoke bench-smoke serve-smoke bench-check-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The event kernel runs one goroutine at a time by construction, but
# the bench layer's Prewarm worker pool and singleflight caches run
# simulations on real host workers, so internal/sim and the bench layer
# (with its parallel-vs-serial determinism tests) get the full
# -cpu=1,2,4 spread; the other concurrent packages — wsrt, openload,
# serve, store — run at the default GOMAXPROCS.
race:
	$(GO) test -race -cpu=1,2,4 ./internal/sim ./internal/bench/...
	$(GO) test -race ./internal/mem ./internal/graph ./internal/fault ./internal/wsrt ./internal/openload ./internal/serve ./internal/store

# Host-parallel determinism gate: fan a target subset out over 4
# workers; the render pass reads only the warmed cache, so this passing
# plus the bench determinism tests means -j cannot change any result
# (see EXPERIMENTS.md "Host-parallel runs").
parallel-smoke:
	$(GO) run ./cmd/paperbench -size test -apps cilk5-cs,ligra-bfs -j 4 table4 fig6 uli

# A fast end-to-end chaos pass: two apps under every stock scenario on
# the 8-core chaos machine, output verified against the serial
# reference (see EXPERIMENTS.md "Fault injection & chaos runs").
chaos-smoke:
	$(GO) run ./cmd/paperbench -apps cilk5-cs,ligra-bfs chaos

# Survivability pass: one app under the lossy-ULI and core-loss
# scenarios (steal messages dropped, a tiny core fail-stopped mid-run);
# the run must still produce the reference output, with the oracle
# shadowing every memory operation (see EXPERIMENTS.md "Recovery
# experiments").
chaos-lossy-smoke:
	$(GO) run ./cmd/paperbench -apps cilk5-cs -faults lossy-uli,core-loss chaos

# Memory-ordering oracle pass on a fault-free run: zero violations and
# zero simulated-cycle overhead expected.
oracle-smoke:
	$(GO) run ./cmd/btsim -config bT8/HCC-DTS-gwb -app cilk5-cs -oracle

# Open-system determinism gate: the same bursty overload run under full
# lossy chaos, twice, must print byte-identical reports (seeded
# arrivals, exact latency percentiles, and the shed accounting identity
# are all deterministic; see EXPERIMENTS.md "Open-system experiments").
open-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/btsim" ./cmd/btsim && \
	"$$dir/btsim" -open -config bT8/HCC-DTS-gwb -workload rmat-query -arrival bursty \
		-rate 8 -requests 32 -open-seed 1 -inflight 8 -faults chaos-lossy-all > "$$dir/a.txt" && \
	"$$dir/btsim" -open -config bT8/HCC-DTS-gwb -workload rmat-query -arrival bursty \
		-rate 8 -requests 32 -open-seed 1 -inflight 8 -faults chaos-lossy-all > "$$dir/b.txt" && \
	cmp "$$dir/a.txt" "$$dir/b.txt" && echo "open-smoke: identical under chaos-lossy-all"

# One pass over every Go benchmark (kernel microbenchmarks and the
# end-to-end artifact benchmarks) so a perf-rig regression — a bench
# that panics, a metric that stops compiling — fails ci. Numbers from
# -benchtime=1x are noise; `make bench` produces the real ones.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/sim ./internal/machine .

# CPU profile of the serial test-size table3 run, printed as the top
# functions by flat time.
profile:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/paperbench" ./cmd/paperbench && \
	"$$dir/paperbench" -size test -j 1 -cpuprofile "$$dir/cpu.pprof" table3 > /dev/null && \
	$(GO) tool pprof -top -nodecount 40 "$$dir/paperbench" "$$dir/cpu.pprof"

# Service self-test: start simd on a random port with a temp store,
# POST a tiny job under the full lossy chaos scenario, assert HTTP 200,
# the ULI accounting identity (reqs == acks + nacks + drops) in the
# returned JSON, and a byte-identical repeat; then drain gracefully via
# a real SIGTERM and exit 0 (see EXPERIMENTS.md "Running the service").
serve-smoke:
	$(GO) run ./cmd/simd -smoke

# Append this commit's measurement to the cumulative BENCH.json
# trajectory: the kernel microbenchmark and a strictly serial ref-size
# table3 pass, measured on this host (see EXPERIMENTS.md "Profiling and
# benchmarking").
bench:
	$(GO) run ./cmd/paperbench bench

# Render the BENCH.json trajectory to the committed static page
# (inline SVG, no scripts, no external assets).
bench-plot:
	$(GO) run ./cmd/paperbench bench-plot

# Perf-regression gate: re-measure every series in bench/gates.toml and
# compare against the baselines recorded in BENCH.json; exits non-zero
# only when a series' whole confidence interval lands past its
# threshold (see EXPERIMENTS.md "Regression gating"). Bless intentional
# changes with:  go run ./cmd/paperbench bench-check -update-baseline
bench-check:
	$(GO) run ./cmd/paperbench bench-check

# Single-cell deterministic gate for ci: exercises the whole measure →
# summarize → compare → verdict → exit-code pipeline in under a second,
# on bit-identical simulated cycles, so it cannot flake on any host.
bench-check-smoke:
	$(GO) run ./cmd/paperbench bench-check -gates bench/gates-smoke.toml -iterations 2
