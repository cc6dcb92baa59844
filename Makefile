GO ?= go
FUZZTIME ?= 5s

.PHONY: check check-full vet build test test-short budgets benchmark-smoke test-perfbench lint fuzz-smoke \
	chaos chaos-short telemetry-smoke trace-smoke examples-smoke

## check: the tier-1 gate — vet, lint, build, race-enabled tests (the
## perfbench module's included), the allocation and retained-heap
## budgets the race detector skips, one run of every Go benchmark, fuzz
## smoke, a -short chaos seed sweep, the end-to-end telemetry and
## distributed-tracing smokes, one run of every example program, and the
## acceptance gates of the cache, multiplex, traceoverhead, placement
## and delta experiments (DESIGN.md §3 has the gate table).
check: vet lint build test budgets benchmark-smoke test-perfbench fuzz-smoke chaos-short telemetry-smoke trace-smoke \
	examples-smoke bench-cache bench-multiplex bench-traceoverhead bench-placement bench-delta

## check-full: everything `check` runs, then what it leaves out for time:
## the experiment rows `check` does not gate (table1, fig4 to fig7 and
## concurrent), the perfbench module's tests without -short, and the
## chaos sweep over seeds 1-128. TestEveryExperimentIsGated fails when a
## row of the experiment table is named by neither target. Known red
## (ROADMAP item 11): bench-concurrent's gate, perfbench's
## TestTracedRunReportsEveryLayerMetric and chaos seed 38.
check-full: check bench-table1 bench-fig4 bench-fig5 bench-fig6 bench-fig7 bench-concurrent
	cd perfbench && $(GO) test ./...
	$(MAKE) chaos SEEDS="$(shell seq 1 128)"

## vet: the stock vet suite plus the two checks most relevant to the
## serving path, run explicitly so a vet default change cannot drop them,
## and gofmt: any file `gofmt -l` names fails the target (perfbench/ is
## the benchmark's own module and is left to its own checks).
vet:
	$(GO) vet ./...
	$(GO) vet -copylocks -loopclosure ./...
	@unformatted=$$(gofmt -l . | grep -v '^perfbench/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l is not clean:"; echo "$$unformatted"; exit 1; fi

## lint: the project-invariant analyzer suite (cmd/globedoclint),
## including the trustflow taint pass (unverified wire bytes must never
## reach a trusted sink) and the deadignore stale-suppression check;
## exits nonzero on any finding, so `check` fails on a new violation.
lint:
	GO=$(GO) sh scripts/lint.sh

build:
	$(GO) build ./...

## test, test-short: -shuffle=on runs each package's tests in a random
## order and prints the seed, so an order-dependent result (one test
## leaning on state an earlier one left in telemetry.Default()) shows up
## and reproduces with -shuffle=<seed>.
test:
	$(GO) test -race -shuffle=on ./...

test-short:
	$(GO) test -race -short -shuffle=on ./...

## budgets: internal/alloctest's byte and retained-heap budgets skip under
## the race detector, which `test` and CI's test step run with, so every
## package whose tests import alloctest is run once more without it.
budgets:
	$(GO) test $$($(GO) list -f '{{.ImportPath}} {{.TestImports}} {{.XTestImports}}' ./... \
		| grep '\[.*globedoc/internal/alloctest' | cut -d' ' -f1)

## benchmark-smoke: every Benchmark function in the module, run once
## (-benchtime 1x) and no test beside it, so a benchmark that no longer
## runs fails here rather than when someone next measures with it. Its
## timings are not read. (Not bench-*: that prefix is the experiment
## rule's below.)
benchmark-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## test-perfbench: perfbench/ is its own module, which ./... above does
## not reach; an API change that breaks the benchmark fails here.
test-perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

## fuzz-smoke: a short budget per fuzz target. `go test -fuzz` accepts
## one target per invocation, hence the loop; TestFuzzTargetsListed
## fails when a Fuzz function in the tree is missing from FUZZ_TARGETS.
FUZZ_TARGETS = \
	internal/cert:FuzzUnmarshalIntegrityCertificate \
	internal/cert:FuzzUnmarshalNameCertificate \
	internal/document:FuzzParseHybrid \
	internal/document:FuzzExtractLinks \
	internal/globeid:FuzzHashElement \
	internal/keys:FuzzUnmarshalPublicKey \
	internal/lint:FuzzLintSuppression \
	internal/location:FuzzLookupDecode \
	internal/merkle:FuzzMerkleDecode \
	internal/naming:FuzzUnmarshalChain \
	internal/object:FuzzObjectDecode \
	internal/policy:FuzzParse \
	internal/server:FuzzUnmarshalBundle \
	internal/server:FuzzDeltaDecode \
	internal/server:FuzzDecodeDeltaRequest \
	internal/transport:FuzzFrameDecode \
	internal/transport:FuzzRequestDecode \
	internal/transport:FuzzVersionNegotiation \
	internal/vcache:FuzzCacheMatchesModel
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test -run='^$$' -fuzz="$${t#*:}\$$" -fuzztime=$(FUZZTIME) "./$${t%:*}/"; \
	done

## chaos: the seeded fault-injection suite plus the fleet degradation
## scenario (a bound replica dies mid-run and the selector must re-rank
## away), both under the race detector, once per fault-schedule seed:
## every seed of SEEDS (default 1-32), or only SEED when it is set
## (`make chaos SEED=7`). Every seed runs; each failing one is printed
## with its output and the command that reproduces it, and the target
## fails if any did. CHAOS_FLAGS passes extra `go test` flags;
## chaos-short is the sweep under -short, the one `check` runs. CI runs
## a window of 8 seeds that moves with the commit.
SEEDS ?= $(shell seq 1 32)
CHAOS_FLAGS ?=
chaos:
	@failed=; for s in $(if $(SEED),$(SEED),$(SEEDS)); do \
		if out=$$($(GO) test -race -count=1 $(CHAOS_FLAGS) -run 'Chaos|FleetSelector' ./internal/deploy/ -seed $$s 2>&1); then \
			echo "chaos seed $$s: ok"; \
		else \
			echo "$$out"; failed="$$failed $$s"; \
		fi; \
	done; \
	for s in $$failed; do echo "FAIL chaos seed $$s: reproduce with make chaos SEED=$$s CHAOS_FLAGS=$(CHAOS_FLAGS)"; done; \
	test -z "$$failed"

chaos-short:
	$(MAKE) chaos CHAOS_FLAGS=-short

## telemetry-smoke: boot services + proxy with -debug-addr, curl /debugz,
## validate the snapshot schema with cmd/globedoc-debugz.
telemetry-smoke:
	GO=$(GO) sh scripts/telemetry_smoke.sh

## trace-smoke: boot services + object server + proxy (race-enabled
## builds), fetch one object end to end, and assert a single distributed
## trace stitches across the proxy and server span rings (>= 10 spans,
## process-boundary marker) with replica health samples on /debugz.
trace-smoke:
	GO=$(GO) sh scripts/trace_smoke.sh

## examples-smoke: build and run every program under examples/ once; any
## nonzero exit fails the target, with the program's output. quickstart
## (owner reissue and push) and attacks (a stale replay signed over a
## second document) drive the owner-update and version-ordering paths end
## to end. About 6 s in all.
examples-smoke:
	@set -e; for d in examples/*/; do \
		echo "example $$d"; \
		out=$$($(GO) run "./$$d" 2>&1) || { echo "$$out"; echo "FAIL example $$d"; exit 1; }; \
	done

## bench-%: run one row of the experiment table (internal/bench) at the
## configuration its acceptance gate is defined at and fail if the gate
## does — `make bench-cache`, `make bench-concurrent`, `make bench-fig4`.
bench-%:
	$(GO) run ./cmd/benchmark -experiment $*
