# Developer and CI entry points. `make check` is the gate every change
# must pass: static analysis, the full test suite under the race
# detector, and a one-iteration benchmark smoke run so the benchmarks
# themselves cannot rot.

GO ?= go

.PHONY: build fmt vet test race check benchsmoke profile profile-fused repobench repobench-compare loc

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
# package directory and in total, then the exported-symbol count that
# TestInternalExportsAreUsed logs (exported package-level declarations and
# methods outside bench/, examples/ and package main): the two numbers
# ROADMAP wants to go down. Raw line counts (comments and blanks included),
# so a delta is only a real reduction when it is code that left, not
# formatting.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './examples/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'
	@$(GO) test -count=1 -run '^TestInternalExportsAreUsed$$' -v . \
		| awk '/exported symbols:/ { printf "%6d exported symbols\n", $$NF }'

# CPU and allocation profiles of serial full-scale Figure 6, the command
# behind ROADMAP's "where host time goes" table: full-scale tables overflow
# L2 as the benchmark's scale_full does, which -small runs never do. Prints
# the top 15 cumulative entries of each profile, and the top 15 allocation
# sites by object count (the benchmark's allocs_per_op, which bytes alone
# hide), so perf work starts from evidence, and leaves cpu.prof / mem.prof
# behind for interactive `go tool pprof`.
profile:
	$(GO) build -o dqsbench.bin ./cmd/dqsbench
	./dqsbench.bin -exp fig6 -reps 1 -parallel 1 -cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	$(GO) tool pprof -top -cum -nodecount 15 dqsbench.bin cpu.prof
	$(GO) tool pprof -top -cum -nodecount 15 dqsbench.bin mem.prof
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 15 dqsbench.bin mem.prof

# CPU and allocation profiles of one warm fused server batch
# (BenchmarkFusedBatch: 16 Fig5Small queries, MaxActive 4, shared streams,
# no Config.Plans — the configuration dqs.NewServer users start from),
# the commands behind ROADMAP's "Fused" tables. The CPU pass and the
# allocation passes run separately, because recording every allocation
# (-memprofilerate 1) distorts the CPU samples. The allocation table is per
# warm batch: it is the difference between a 30x and a 10x pass, so the
# cold batch and the benchmark's workload setup, which both passes pay,
# cancel, and what is left is what 20 warm batches allocate. Prints the top
# 15 cumulative CPU entries and the top 15 allocation sites by object count
# over those 20 batches, and leaves fused.test, fused-cpu.prof,
# fused-mem10.prof and fused-mem30.prof behind for interactive `go tool
# pprof`. It reads host timings, so CI does not run it.
profile-fused:
	$(GO) test -run '^$$' -bench FusedBatch -benchtime 30x -benchmem -o fused.test -cpuprofile fused-cpu.prof ./internal/server/
	$(GO) test -run '^$$' -bench FusedBatch -benchtime 10x -benchmem -o fused.test -memprofilerate 1 -memprofile fused-mem10.prof ./internal/server/
	$(GO) test -run '^$$' -bench FusedBatch -benchtime 30x -benchmem -o fused.test -memprofilerate 1 -memprofile fused-mem30.prof ./internal/server/
	$(GO) tool pprof -top -cum -nodecount 15 fused.test fused-cpu.prof
	$(GO) tool pprof -sample_index=alloc_objects -diff_base fused-mem10.prof -top -nodecount 15 fused.test fused-mem30.prof
