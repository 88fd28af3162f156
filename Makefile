GO ?= go

.PHONY: all check build vet vet-concurrency test race chaos chaos-quick fuzz bench bench-quick bench-trajectory experiments examples cover scrub clean

# BENCH_INDEX numbers the trajectory snapshot bench-trajectory writes;
# "auto" picks one past the newest BENCH_<n>.json, tracking the
# stacked-PR sequence without manual bumps.
BENCH_INDEX ?= auto

all: build vet test

# check is the full pre-commit gate: compile, vet, tests, the
# concurrency-heavy packages (the async I/O pipeline, transports and the
# SPMD driver) under the race detector, the quick self-healing subset, and
# a benchmark smoke run that validates the trajectory schema.
check: build vet test race chaos-quick bench-quick

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The ooc and comm/tcp tests enable the pipeline (read-ahead/write-behind
# goroutines and the per-tag receive queues), the fault tests drive the
# deterministic injector from concurrent ranks, the serve tests drive
# the hot-swap registry and batching engine under concurrent clients, and
# the pclouds/clouds tests run every split-finding protocol (sse, hist,
# vote) across concurrent simulated ranks, so every build exercises the
# concurrency under the race detector.
race: vet-concurrency
	$(GO) test -race ./internal/ooc/... ./internal/comm/... ./internal/fault/... ./internal/pclouds/... ./internal/clouds/... ./internal/serve/... ./internal/driver/... ./internal/stream/... ./internal/record/... ./internal/scrub/...

vet-concurrency:
	$(GO) vet ./internal/ooc/... ./internal/comm/tcp/... ./internal/fault/... ./internal/pclouds/... ./internal/clouds/... ./internal/serve/... ./internal/driver/... ./internal/stream/... ./internal/record/... ./internal/scrub/...

# Fault-injection acceptance suite: killed/wedged ranks, dropped and
# corrupted frames, slow and failing storage — every scenario must end in
# either full recovery (bit-identical tree) or a clean attributed error
# within the detection deadline, never a hang. Run under the race detector
# because fault paths are where the detector earns its keep.
chaos:
	$(GO) test -race -run 'TestChaos' -v ./internal/pclouds/
	$(GO) test -race ./internal/fault/... ./internal/comm/tcp/... ./internal/driver/... ./internal/stream/...
	$(GO) test -race -run 'TestCheckpoint|TestResume|TestWriteBehind|TestPrefetch' ./internal/pclouds/ ./internal/fault/ ./internal/ooc/
	$(GO) test -race -run 'TestDrift|TestStationary|TestCorruptPublish' -v ./internal/stream/
	$(GO) test -race -run 'TestRegistryQuarantines|TestRegistryRollback|TestRegistrySingleFile' ./internal/serve/
	$(GO) test -race -run 'TestCorruptionDetected' -v ./internal/pclouds/
	$(GO) test -race -run 'TestTailV2|TestCheckpointEveryBitFlip|TestCheckpointSourceBinding' ./internal/stream/
	$(GO) test -race ./internal/scrub/

# chaos-quick is the self-healing subset that gates every commit: the
# supervised kill-and-respawn acceptance test, generation fencing, and the
# checkpoint GC/auto-resume tests, under the race detector with a tight
# overall deadline so a hang fails fast instead of eating the gate.
chaos-quick: vet
	$(GO) test -race -timeout 300s -run 'TestSupervised|TestRunRank|TestSupervise' ./internal/driver/
	$(GO) test -race -timeout 300s -run 'TestGeneration|TestDoorman|TestStale' ./internal/comm/tcp/
	$(GO) test -race -timeout 300s -run 'TestCheckpointGC|TestAutoResume|TestDegraded|TestResume' ./internal/pclouds/

# Short fuzz passes: the prediction-server request decoders (malformed
# JSON/binary rows must get a 4xx, never a panic), the stream window
# checkpoint decoder (garbage must error, accepted bytes must re-encode
# identically), the v2 record-block decoder (corrupt blocks must fail
# their CRC, never decode silently), and the guide-table Locate (must equal
# a binary search on any cut set and value).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzClassifyRequest -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzDecodeCheckpoint -fuzztime=10s ./internal/stream
	$(GO) test -run='^$$' -fuzz=FuzzRecordBlock -fuzztime=10s ./internal/record
	$(GO) test -run='^$$' -fuzz=FuzzLocate -fuzztime=10s ./internal/histogram

# -run='^$' keeps the benchmark pass from re-running the unit-test suite.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# bench-quick is the smoke half of the trajectory workflow: a short
# fixed-seed benchrun into a scratch directory, schema-validated and thrown
# away — it proves the benchmarks and the BENCH_<n>.json format work without
# touching the repo's trajectory or gating on performance. Quick mode
# includes one hist-protocol build (split/hist/p4), so make check always
# exercises the quantized split path end to end.
bench-quick:
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/benchrun -quick -out $$dir && \
	$(GO) run ./cmd/benchrun -validate $$dir/BENCH_1.json && \
	rm -rf $$dir

# bench-trajectory is the full run: write BENCH_$(BENCH_INDEX).json at the
# repo root and fail if a gated metric regressed against the previous
# snapshot.
bench-trajectory:
	$(GO) run ./cmd/benchrun -out . -index $(BENCH_INDEX)
	$(GO) run ./cmd/benchdiff -dir .

# Offline integrity scrub: verify every checksum in the artifact
# directories named by SCRUB_PATHS (out-of-core stores, checkpoint trees,
# model registries, record files). Nonzero exit on any corrupt file.
SCRUB_PATHS ?= .
scrub:
	$(GO) run ./cmd/pcloudsscrub $(SCRUB_PATHS)

cover:
	$(GO) test -cover ./...

# Regenerate every table/figure/ablation of the paper (scaled sizes).
experiments:
	$(GO) run ./cmd/experiments -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/outofcore
	$(GO) run ./examples/distributed
	$(GO) run ./examples/strategies
	$(GO) run ./examples/customschema

# The capture files referenced by EXPERIMENTS.md.
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
