# Development targets for the mobilstm simulator.
#
# `make check` is the CI gate for build + vet + race-enabled tests; the
# project's source rules run inside its `go test` as TestSourceRules
# (source_rules_test.go; see docs/STATIC_ANALYSIS.md).

GO ?= go

.PHONY: build test race vet vet386 mutate fuzz-smoke \
	serve-race determinism-race batch-race fleet-race alloc-pins \
	chain-matrix activation-exhaustive bench bench-json bench-batch serve-smoke fleet-smoke loc check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# 32-bit vet pass: catches int-overflow bugs (e.g. untyped constants
# that only fit in 64-bit int) that amd64-only vet misses.
vet386:
	GOARCH=386 $(GO) vet ./...

# The seeded-mutation table (testdata/mutations.txt): each row plants
# one bug in a temporary copy of the module and requires its named
# tests to fail on every run — the evidence that each deleted analyzer's
# class, and each source rule, has a test that catches it
# (docs/STATIC_ANALYSIS.md).
mutate:
	$(GO) test -count=1 -run '^TestMutations$$' -v -timeout 30m . -mutate

# Short shake of the fuzz targets (the gpu cache simulator, the tensor
# span bodies and the LSTM batch forward); the one list of them, which
# CI runs in addition to `check`.
fuzz-smoke:
	$(GO) test -run=Fuzz -fuzz=FuzzCacheAccess -fuzztime=10s ./internal/gpu/
	$(GO) test -run=Fuzz -fuzz=FuzzSpanBodies -fuzztime=10s ./internal/tensor/
	$(GO) test -run=Fuzz -fuzz='^FuzzRunBatchEquivalence$$' -fuzztime=10s ./internal/lstm/

# Focused race gate for the concurrent serving path: the serve package,
# the shared-engine regression tests and the threshold sweep in core,
# and the offline passes Warm runs on the batch forward — the batched
# corpus builder in model and the batched scorer in accuracy.
# Already covered by `make race`, kept separate so the serving loop can
# be hammered alone.
serve-race:
	$(GO) test -race -count=2 ./internal/serve/... ./internal/core/... \
		./internal/model/ ./internal/accuracy/

# The packages that carry the forward-path contracts: the kernels, the
# shared recurrent core (its arenas), the two cell kinds (the contract
# suite of internal/equivtest bound per kind) and the golden logit bits.
FORWARD_PKGS = ./internal/tensor/ ./internal/recurrent/ ./internal/lstm/ \
	./internal/gru/ ./internal/equivtest/

# Focused race gate for the packed hot path: the network-level
# determinism tests (bitwise-identical logits across GOMAXPROCS, the
# cold-cache build race, Invalidate, the pooled forward arenas shared by
# concurrent passes) plus the kernel equivalence suite.
# Already inside `make race`; kept separate so CI reruns it -count=2.
determinism-race:
	$(GO) test -race -count=2 \
		-run 'Bitwise|Repeatable|ColdCache|Invalidate|Equivalent|Matches|Golden|Arena' \
		$(FORWARD_PKGS)

# Focused race gate for the batched forward path: the RunBatch
# bitwise-equivalence suites in lstm/gru (serial-vs-batch, GOMAXPROCS
# sweep, shared cold-cache build), the batch GEMM kernel tests, and the
# serve window-dispatch tests (one RunBatch per drained window, ragged
# lengths, malformed-member isolation). Already inside `make race`;
# kept separate so CI reruns it -count=2.
batch-race:
	$(GO) test -race -count=2 -run 'Batch|Window|Malformed|GemmRows' \
		$(FORWARD_PKGS) ./internal/serve/

# The forward path's allocation pins at their exact counts. They run
# under the race detector too, but there sync.Pool drops a random
# quarter of the pooled forward arenas, so the count pins carry an
# arena per layer of headroom; this run, without the detector, holds
# them to the steady-state counts (no arena allocated) and to the
# Intra-equals-Baseline B=4 count.
alloc-pins:
	$(GO) test -count=1 -run 'Allocs|AllocatesNoArena' \
		./internal/lstm/ ./internal/gru/

# Kernel-chain matrix: the equivalence and determinism suites and the
# golden logit bits re-run with each chain forced process-wide via
# MOBILSTM_KERNEL_CHAIN, the one production chain selector (tests that
# compare chains switch it with equivtest.UseChain, and each forward
# package's TestMain fails a leg a switch leaked from; the golden bits
# switch only the avx2 leg, to sse2). generic resolves every binding —
# the explicit entry points too — to a pure-Go body and runs SigmoidVec/TanhVec through
# the scalar reference (the reference configuration, and the end-to-end
# witness that the SSE2 body and dotRowGeneric, and the activation body
# and the scalar Sigmoid/Tanh, agree on the golden corpora),
# sse2 is the default canonical chain, and avx2 forces the wide chain —
# bound to the pure-Go wide body when the host lacks AVX2+FMA, so the
# matrix passes on any amd64 or non-amd64 runner. The 'Chain' pattern
# selects TestChainMatrixLegRunsItsBodies, which fails a leg whose
# resolved bodies are not the ones its name promises.
chain-matrix:
	for chain in generic sse2 avx2; do \
		echo "=== MOBILSTM_KERNEL_CHAIN=$$chain ==="; \
		MOBILSTM_KERNEL_CHAIN=$$chain $(GO) test -count=1 \
			-run 'Bitwise|Repeatable|ColdCache|Invalidate|Equivalent|Matches|Wide|Chain|Golden' \
			$(FORWARD_PKGS) || exit 1; \
	done

# The vector activation contract in full: the AVX2+FMA SigmoidVec and
# TanhVec bodies against the scalar Sigmoid/Tanh reference on all 2^32
# float32 inputs each (tier-1 `go test` checks a ~1 s sample). One
# worker per GOMAXPROCS; ~75 s on two cores. Skips itself on CPUs
# without AVX2+FMA, where only the scalar loop exists.
activation-exhaustive:
	$(GO) test -count=1 -run '^TestActivationExhaustive$$' -v -timeout 30m \
		./internal/tensor/ -activation-exhaustive

# The repository benchmark (BENCHMARK.json, bench/README.md): every
# workload untraced, then traced with the per-layer probes.
bench:
	$(GO) run ./bench

# Hot-path benchmark trajectory: the united/packed kernel and
# activation micro-benchmarks plus the end-to-end Run benchmarks, folded into
# BENCH_hotpath.json by cmd/benchjson (min ns/op over BENCHCOUNT
# samples — the noise protocol of EXPERIMENTS.md). CI runs this as a
# smoke with a short BENCHTIME and RUNBENCHTIME; local trajectory
# numbers want the defaults or longer. The end-to-end Run family has
# its own RUNBENCHTIME: one of its ops takes 7–30 ms, so a 10-iteration
# sample is one scheduler hiccup wide and cannot resolve the RunBatch
# rows on a two-core box (a same-code B=4 row read 19 % apart at 10x).
BENCHTIME ?= 10x
RUNBENCHTIME ?= 40x
BENCHCOUNT ?= 3
bench-json:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run='^$$' -bench='Gemv|Gemm|SigmoidVec|TanhVec' -benchmem \
		-benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) ./internal/tensor/ > /tmp/bench_hotpath.txt
	$(GO) test -run='^$$' -bench='^BenchmarkRun' -benchmem \
		-benchtime=$(RUNBENCHTIME) -count=$(BENCHCOUNT) . >> /tmp/bench_hotpath.txt
	/tmp/benchjson < /tmp/bench_hotpath.txt > BENCH_hotpath.json

# Batch-size sweep alone: the RunBatch benchmarks over B ∈ {1..16}
# with the per-request ns/req metric, without the rest of the hot-path
# wall. `make bench-json` already folds these into BENCH_hotpath.json
# (its '^BenchmarkRun' pattern matches BenchmarkRunBatch too); this
# target is for iterating on the batch path locally.
bench-batch:
	$(GO) test -run='^$$' -bench='^BenchmarkRunBatch' -benchmem \
		-benchtime=$(RUNBENCHTIME) -count=$(BENCHCOUNT) .

# Focused race gate for the fleet tier: sharded routing, the shared
# single-flight engine cache, cold/warm charge accounting, and the
# concurrent Warm/Submit/Stats/Close interleavings. Already inside
# `make race`; kept separate so CI reruns it -count=2.
fleet-race:
	$(GO) test -race -count=2 \
		-run 'Fleet|Concurrent|Warm|Cold|StaleTick|Transient|Dropped' \
		./internal/serve/

# End-to-end scenario smoke of the serving binary: a short open-loop
# run over one benchmark on the quick profile. Exercises the batching
# window, the worker pool, and the packed hot path under real traffic.
serve-smoke:
	$(GO) run ./cmd/mobilstm-serve -benches MR -requests 12 -interarrival 1 -seed 7

# Fleet smoke: the cold-then-prewarmed validation protocol over a
# three-shard heterogeneous fleet. Asserts one cold build per benchmark
# fleet-wide (single-flight cache), full pre-warm propagation, and warm
# p99 < cold p99.
fleet-smoke:
	$(GO) run ./cmd/mobilstm-serve -shards 3 -fleetcheck \
		-benches MR,BABI -requests 16 -interarrival 1 -seed 7

# Non-test and test Go lines and assembly lines per area — each
# internal package, the root package (the mobilstm facade), cmd/ and
# bench/ — and in total: the numbers ROADMAP quotes and every aim-2 PR
# reports.
LOC_ROW = all=$$(find $(1) -name '*.go' | xargs cat /dev/null | wc -l); \
	tst=$$(find $(1) -name '*_test.go' | xargs cat /dev/null | wc -l); \
	asm=$$(find $(1) -name '*.s' | xargs cat /dev/null | wc -l); \
	printf '%-22s %6d non-test %6d test %6d asm\n' $(2) $$((all - tst)) $$tst $$asm

loc:
	@for d in internal/*/ cmd/ bench/; do $(call LOC_ROW,$$d,$$d); done
	@$(call LOC_ROW,. -maxdepth 1,root)
	@$(call LOC_ROW,. -not -path './.bench_build/*',total)

check:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -race ./...
