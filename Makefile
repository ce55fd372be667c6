GO ?= go

.PHONY: build test vet race ownership-race handles-race bench bench-test bench-steps bench-edge bench-append bench-io bench-storage bench-pool bench-replication bench-lsm bench-slo lsm-race replication-faults storage-faults recovery-smoke slo-smoke linkcheck loc clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The commit path's ownership rules (docs/CONCURRENCY.md), ten times over
# under the race detector: a lent cached state never changes and an unlent one
# is written in place, a failed in-place append leaves no trace, exactly-once
# across the high-water mark and every shape of the per-entity txn index, a
# process step's included, the encoded resident log read back through every
# reader and decoded while appends, obsolete flips and compactions run,
# lock-free Locate against concurrent AddUnit, and that recycled step frames,
# transactions and messages carry nothing from one step into the next (CI runs
# the same set in its race job).
ownership-race:
	$(GO) test -race -count=10 -run 'TestResidentLogRoundTrip|TestResidentLogConcurrent|TestLentState|TestColdReadCachesArchived|TestAppendWritesInPlace|TestFailedInPlace|TestFlushCaptureIsLent|TestCachedState|TestExactlyOnce|TestHighWater|TestSerialHot|TestSplitTxnID|TestDuplicateTxn|TestMarkObsoleteFindsTxn|TestTxnIndex|TestRefusedAppend|TestLockFreeRouting|TestDuplicateDeliveryIsIdempotent|TestIdempotenceSet|TestStepWritingNothing|TestResubmission|TestReadStateNeverChanges|TestReadAndQueryStates|TestRecycled|TestCollapsedChildren|TestMessageFreeList|TestBeginIn|TestCommitResultRecords|TestStatsCounts|TestUpdateResultRecords' ./internal/lsdb/ ./internal/partition/ ./internal/process/ ./internal/queue/ ./internal/txn/ ./internal/core/

# The E1..E22 experiment benchmarks (see EXPERIMENTS.md).
bench:
	$(GO) test -run xxx -bench BenchmarkE -benchtime 200x ./...

# The repository benchmark (bench/, a module of its own, so `go test ./...`
# at the root does not reach it) compiles against internal/: its vet and its
# own tests, smoke runs of every workload included. The cold tier's component
# benchmarks ride along at one iteration so CI compiles and runs them.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -run xxx -bench 'BenchmarkCompactL1|BenchmarkFlushCapture|BenchmarkLookupSummary' -benchtime 1x -benchmem ./internal/lsm ./internal/lsdb

# The step path on its own: what one process step costs in time and garbage
# (BenchmarkStepChain) and how often it looks an entity key up (at most once,
# to resolve the entity's handle: TestStepKeyProbes), and what the store's
# share of it, one single-op append to an existing entity, costs — never
# read, so written in place, and read every eighth append, so copied then
# (BenchmarkAppendExistingEntity) — each
# gated by its committed budget (TestStepAllocationBudget, TestAppendBudget:
# the run fails when a step or an append allocates more than that, and an
# append to an unlent state may allocate no State or field map at all); that a
# dequeue's cost is flat in the
# backlog (BenchmarkQueueDrain, which fails otherwise); the E19 worker
# sweep; and that the resident log gives the collector next to nothing to
# scan (TestResidentLogIsNoscan: scannable and live heap bytes per retained
# record, each under its budget); and what recording one latency costs the
# commit path, every P recording into one histogram (BenchmarkHistogramRecord).
bench-steps:
	$(GO) test -run 'TestStepAllocationBudget|TestStepKeyProbes|TestAppendBudget|TestResidentLogIsNoscan' -bench 'BenchmarkStepChain|BenchmarkAppendExistingEntity|BenchmarkQueueDrain|BenchmarkE19|BenchmarkHistogramRecord' -benchmem . ./internal/queue ./internal/process ./internal/lsdb ./internal/metrics

# The HTTP edge on its own: one data-path request (POST delta, POST set of
# three fields, GET, GET history) through its soupsd handler over an in-memory
# kernel, gated by TestEdgeAllocationBudget — the run fails when the handler
# allocates more than its committed budget on top of the kernel call inside it;
# then raw GET and POST-delta requests through the connection loop over
# net.Pipe at pipelining depths 1, 4, 16 and 64 (BenchmarkDataPort: ns/op,
# writes/op, B/op, allocs/op), gated by TestDataPortAllocationBudget — the
# loop's own allocations per request, handler excluded.
bench-edge:
	$(GO) test -run 'TestEdgeAllocationBudget|TestDataPortAllocationBudget' -bench 'BenchmarkEdgeEntity|BenchmarkDataPort' -benchmem ./cmd/soupsd

# The E17 multi-writer append-throughput benchmark on its own: the one
# commit path, in memory and over a WAL that fsyncs every commit cycle.
bench-append:
	$(GO) test -run xxx -bench BenchmarkE17AppendBatch -benchtime 200x .

# The save/load persistence round-trip benchmark (lsdb's frame stream).
bench-io:
	$(GO) test -run xxx -bench BenchmarkSaveLoad -benchtime 50x ./internal/lsdb

# The E18 storage-engine benchmarks on their own: frame-stream load vs WAL
# replay vs checkpointed recovery, and the append overhead of the durable log
# (mem vs WAL vs WAL+fsync) — then the log force as a component: 1, 2 and 4
# SyncAlways WALs in sibling directories appending 250-byte records at once
# (ns/op, syncs/s, B/op, allocs/op).
bench-storage:
	$(GO) test -run xxx -bench BenchmarkE18 -benchtime 20x .
	$(GO) test -run xxx -bench BenchmarkWALAppendSync -benchtime 4000x -benchmem ./internal/storage

# The E19 step-pool benchmark on its own: workers × entity skew,
# cross-entity scaling vs per-entity serialisation.
bench-pool:
	$(GO) test -run xxx -bench BenchmarkE19 -benchtime 200x .

# The E20 replication benchmark on its own: unreplicated baseline vs
# WAL-shipping at async/sync/quorum ack over simulated 2ms links — then
# streaming catch-up's source as a component: one 513-record chunk from LSN 0
# of a 200k-record in-memory log, and a whole walk of it in chunks.
bench-replication:
	$(GO) test -run xxx -bench 'BenchmarkE2[01]' -benchtime 200x .
	$(GO) test -run xxx -bench BenchmarkRecordsAfterN -benchmem ./internal/lsdb

# The E22 tiered-storage benchmarks on their own: per-append stall during a
# quiesced legacy checkpoint vs an off-hot-path tiered flush, and recovery
# time as history grows; the cold tier's bulk paths as components (one L1
# compaction pass, failing past its budget of allocations per input key; one
# flush capture; the set-up of a 4-unit tiered kernel with 240 000 first
# writes, in ns, B and allocs per update, failing when a tiered first write
# allocates past its budget; one restart of that kernel; keys/s, B/op,
# allocs/op) and its point path (one summary lookup through bloom and sparse
# index). The E22 run is
# kept in BENCH_E22.txt, Go's standard benchmark format, so successive
# changes can diff it (benchstat reads it as is).
bench-lsm:
	$(GO) test -run xxx -bench 'BenchmarkE22' -benchtime 200x -benchmem . > BENCH_E22.txt
	cat BENCH_E22.txt
	$(GO) test -run TestCompactAllocationBudget -bench 'BenchmarkCompactL1|BenchmarkFlushCapture' -benchtime 20x -benchmem ./internal/lsm ./internal/lsdb
	$(GO) test -run TestTieredCommitAllocationBudget -bench BenchmarkKernelLoad -benchtime 3x ./internal/core
	$(GO) test -run xxx -bench BenchmarkKernelOpen -benchtime 10x -benchmem ./internal/core
	$(GO) test -run xxx -bench BenchmarkLookupSummary -benchmem ./internal/lsm

# The E23 end-to-end SLO run (see docs/BENCHMARKING.md): the open-loop load
# harness drives the four business scenarios against a managed soupsd over a
# million-entity key space, injects a full network partition mid-run, and
# regenerates the BENCH_E23.json trajectory file — latency scoreboard,
# pacing health, acked-write audit and the /metrics cross-check.
bench-slo:
	$(GO) build -o soupsd ./cmd/soupsd
	$(GO) run ./cmd/soupsbench -soupsd ./soupsd \
		-scenarios crm,banking,inventory,bookstore -entities 1000000 \
		-rate 1000 -arrival poisson -seed 7 \
		-warmup 5s -steady 20s -fault-window 5s -recovery 10s \
		-fault partition -check-every 64 \
		-assert-convergence -json BENCH_E23.json

# Entity handles under the race detector, ten times over: chains over a hot
# key set while the store checkpoints and compacts, writes on new keys are
# refused as events resolve their handles, and the kernel closes and
# bootstraps again; resolvers racing the handle table's growth; drops of
# unwritten entities' handles racing posts that resolve them anew; a refused
# first write against a racing resolve (CI runs the same set).
handles-race:
	$(GO) test -race -count=10 -run 'TestKeyHandlesUnderConcurrentSteps|TestHandleTable|TestHandleDrops|TestRefusedFirstWrite|TestUnwrittenEntities' ./internal/core/ ./internal/lsdb/

# The tiered-storage suites under the race detector: the LSM store unit
# tests (then ten seconds each of fuzzing the table decoders and the bloom
# sidecar parser), the lsdb flush/recovery/cold-read suites, the kill-9
# crash matrix over every
# mid-flush/mid-compaction site, the WAL's refusal of a checkpoint-snapshot
# manifest, and the chunk-pool ownership tests (CI runs the same set in its
# tiering job).
lsm-race:
	$(GO) test -race ./internal/lsm/
	$(GO) test -run xxx -fuzz FuzzTableDecode -fuzztime 10s ./internal/lsm/
	$(GO) test -run xxx -fuzz FuzzBloomDecode -fuzztime 10s ./internal/lsm/
	$(GO) test -race -run 'TestTiered|TestFlushCompactionCrashMatrix|TestColdEviction|TestCheckpointFailure|TestOpenWALRefusesSnapshotManifest|TestAsOfAndHistory' ./internal/lsdb/ ./internal/storage/
	$(GO) test -race -run 'TestRecycle|TestChunkPool|TestApplyFailureRecycles' ./internal/entity/

# The full replication fault matrix under the race detector: every ack mode
# against seeded partitions, loss, latency and standby crashes, plus the
# failover and divergence suites (CI runs the -short subset).
replication-faults:
	$(GO) test -race -run 'TestFaultMatrix|TestCrossMode|TestFailover|TestDivergent|TestPromiseLimit' ./internal/replica/

# Graceful-degradation suites under the race detector: the storage fault
# matrix across ack modes, degraded read-only modes and repair, breaker and
# retry behaviour, the exhaustive torn-write recovery matrices (a short file,
# and a reserved zero tail) then ten seconds each of fuzzing the WAL frame
# walker, the record-stream reader (replication wire, backups, Save/Load) and
# the frame walker over a file section (how tables read),
# admission control and deadlines, the kernel/HTTP 503 surface, ten seconds
# of fuzzing soupsd's request scanner against its encoding/json oracle, and
# ten of fuzzing its request-head parser against http.ReadRequest.
storage-faults:
	$(GO) test -race -run 'TestStorageFaultMatrix|TestEnospc|TestFsync|TestCorruption|TestBreaker|TestShipRetry' ./internal/replica/
	$(GO) test -race -run 'TestFaultBackend|TestWALTornWrite|TestWALMidLogCorruption|TestWALSecondPage|TestWALSyncOSBatches|TestWALBadFrame|TestWALResumeAfter|TestWALUntrimmed|TestWALCloseReleases' ./internal/storage/
	$(GO) test -run xxx -fuzz FuzzWALScan -fuzztime 10s ./internal/storage/
	$(GO) test -run xxx -fuzz FuzzRecordStream -fuzztime 10s ./internal/storage/
	$(GO) test -run xxx -fuzz FuzzFrameSection -fuzztime 10s ./internal/storage/
	$(GO) test -race -run 'TestMaxDepth|TestRedelivery|TestDeadline|TestDeepBacklog|TestEngineDropsExpired|TestEmitInherits' ./internal/queue/ ./internal/process/
	$(GO) test -race -run 'TestKernelSheds|TestKernelDegraded|TestEventSubmitSheds|TestDegradedStorage|TestEventDeadline' ./internal/core/ ./cmd/soupsd/
	$(GO) test -run xxx -fuzz FuzzOpsDecode -fuzztime 10s ./cmd/soupsd/
	$(GO) test -run xxx -fuzz FuzzRequestHead -fuzztime 10s ./cmd/soupsd/

# End-to-end crash test: populate a durable soupsd, kill -9, restart from the
# data directory, verify states and a backup/restore round trip — then kill
# a replicated primary -9 and promote one of its two standbys, and finally
# run a node out of disk on a small tmpfs (writes shed 503, reads serve,
# freeing space re-arms; skipped where tmpfs cannot be mounted).
recovery-smoke:
	./scripts/recovery-smoke.sh

# Bounded end-to-end SLO check: the load harness against a real soupsd with
# a partition and a kill -9 injected mid-run, asserting the p999 bound,
# Retry-After on every 503, the measured RTO, and audit convergence (zero
# lost acked writes). Small enough for CI; `make bench-slo` is the full run.
slo-smoke:
	./scripts/slo-smoke.sh

# Verify every relative markdown link in the docs resolves to a real file.
linkcheck:
	./scripts/linkcheck.sh

# The line counts ROADMAP.md's aim 2 keeps score with: non-test Go outside
# bench/, Go tests outside bench/, and all Go under bench/ (hidden
# directories, such as the benchmark's build output, are skipped).
LOC_GO = find . -path './.*' -prune -o -name '*.go'
loc:
	@echo "non-test Go outside bench/: $$($(LOC_GO) ! -name '*_test.go' ! -path './bench/*' -print | xargs cat | wc -l)"
	@echo "tests outside bench/:       $$($(LOC_GO) -name '*_test.go' ! -path './bench/*' -print | xargs cat | wc -l)"
	@echo "bench/:                     $$($(LOC_GO) -path './bench/*' -print | xargs cat | wc -l)"

clean:
	$(GO) clean ./...
	rm -f soupsd soupsctl soupsbench
