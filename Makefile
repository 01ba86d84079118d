# Developer and CI entry points. `make check` is the gate every change
# must pass: static analysis, the full test suite under the race
# detector, and a one-iteration benchmark smoke run so the benchmarks
# themselves cannot rot.

GO ?= go

.PHONY: build fmt vet test race check benchsmoke profile repobench repobench-compare loc

build:
	$(GO) build ./...

# Fail on any unformatted file (gofmt -l prints them; empty output = clean).
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# ./... covers the whole module; cmd/ and examples/ are named explicitly so
# trimming the main pattern can never silently drop the entry points.
vet:
	$(GO) vet ./... ./cmd/... ./examples/...

test:
	$(GO) test ./...

# The experiment sweeps make the race suite a few minutes of single-core
# work; use `make race PKG=./internal/experiment/...` to focus one tree.
PKG ?= ./...
race:
	$(GO) test -race $(PKG)

check: fmt build vet race benchsmoke

# Run every benchmark once, as a test: catches benchmarks that panic or
# no longer compile without paying for real measurement iterations.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The repository benchmark (contract: BENCHMARK.json, harness and metric
# tables: bench/README.md): four workloads, each an untraced pass for the
# eight gated end-to-end metrics and a traced pass for the per-layer ledger,
# ~25 s per pass. `repobench` writes the full report under the git-ignored
# out/; `repobench-compare` prints the second report's change against the
# first beside each metric's regression bound and fails past it. To weigh a
# change, record the parent commit with
# `make repobench REPOBENCH_OUT=out/repobench-base.json`, the change with
# `make repobench`, then compare. Host time is noisy on shared machines:
# a claimed gain needs alternating pairs, not one comparison (see
# EXPERIMENTS.md "Performance tracking").
REPOBENCH_OUT ?= out/repobench.json
REPOBENCH_BASE ?= out/repobench-base.json
repobench:
	$(GO) run ./bench -json $(REPOBENCH_OUT)

repobench-compare:
	$(GO) run ./bench -compare $(REPOBENCH_BASE) $(REPOBENCH_OUT)

# Production Go lines — non-test files outside bench/ and examples/ — per
# package directory and in total: the number ROADMAP wants to go down. Raw
# line counts (comments and blanks included), so a delta is only a real
# reduction when it is code that left, not formatting.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './examples/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

# CPU and allocation profiles of the DSE-heavy delay-class sweep, the
# workload the scheduler benchmarks exercise. Prints the top 15 cumulative
# entries of each profile so perf work starts from evidence, and leaves
# cpu.prof / mem.prof behind for interactive `go tool pprof`.
profile:
	$(GO) build -o dqsbench.bin ./cmd/dqsbench
	./dqsbench.bin -exp delays -small -reps 1 -cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	$(GO) tool pprof -top -cum -nodecount 15 dqsbench.bin cpu.prof
	$(GO) tool pprof -top -cum -nodecount 15 dqsbench.bin mem.prof
