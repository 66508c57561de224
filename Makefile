# Repro of conf_sc_LuHZ98 — build/test entry points. CI runs `make ci`.

GO ?= go

.PHONY: build vet fmt-check lint test test-short test-race smp-race hybrid-race gc-race scale-race span-race serve-race fuzz-wire bench-smoke bench alloc-bench bench-scaling bench-pairs same-output tables ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt cleanliness: fail if any file needs reformatting.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Protocol invariant analyzers (clockcharge, detfree, lockorder,
# tripwire — see README "Static analysis"). nowlint also
# speaks go vet's unitchecker protocol, so the same suite runs as
#   $(GO) build -o /tmp/nowlint ./cmd/nowlint && $(GO) vet -vettool=/tmp/nowlint ./...
# Configuration travels in Config values: a process-wide Set…Default
# setter in the protocol library or the runtime fails the lint. Pages and
# diffs cross the wire one way (msgFetchReq/msgFetchRep): a message
# constant of the retired page-at-a-time protocol fails it too. A run's
# accounting is defined once, as dsm.Report: a per-layer copy of it under
# one of the retired names fails it as well. A thread operation is declared
# once — on dsm.Client, which dsm.Node embeds, and on core.Worker, whose
# unchanged part TC embeds — so a one-line method of *dsm.Node or
# *core.TC that forwards to the same-named method of a field fails it too.
# A thread waits for another thread in one place, the node's router
# (dsm's replyRouter.await): a message channel declared in dsm outside
# client.go, or a receive from a Done() channel in core, fails it as well.
# No send is ever refused: a TrySend call in non-test internal/ code fails
# it too (network.Endpoint.TrySendAt stays for bench/ alone). Page copies,
# twins and kept diffs come from the System's buffer pool: a
# make([]byte, PageSize) or bytes.Clone in non-test internal/dsm outside
# pool.go and the shadow oracle (debug.go) fails it as well. Non-test
# internal/ code carries no analyzer waiver: a //nowlint:allow line there
# fails it too (the analysis packages, which define and document the
# directive and test it in their testdata, are exempt). Only the
# application thread purges: a TryLock in non-test internal/dsm — a protocol
# server taking the fetch lock on the side — fails it too. Every protocol
# datagram carries one message: a SendFrameAt call in non-test internal/
# code fails it as well (network.Endpoint.SendFrameAt stays for bench/
# alone).
lint:
	$(GO) run ./cmd/nowlint ./...
	@if grep -nE '^func Set[A-Za-z]*Default\(' internal/dsm/*.go internal/core/*.go; then \
		echo "lint: package-level Set*Default setter (use dsm.Config / core.Config fields)"; exit 1; fi
	@if grep -nE '^[[:space:]]*(const[[:space:]]+)?msg(Page|Diff)(Req|Rep)\b' internal/dsm/*.go; then \
		echo "lint: page-at-a-time message type (pages and diffs travel in msgFetchReq/msgFetchRep only)"; exit 1; fi
	@if grep -rnE --include='*.go' '\b(DSMResult|RuntimeResult|ProtoSummary|TrafficBreakdown)\b' internal; then \
		echo "lint: a second accounting surface (a run's accounting is dsm.Report, read through Report())"; exit 1; fi
	@if grep -nE '^func \((n \*Node|tc \*TC)\) ([A-Z][A-Za-z0-9]*)\(.*\{ (return )?(n|tc)\.[a-z0-9]+\.\2\(' internal/dsm/*.go internal/core/*.go; then \
		echo "lint: a forwarding method (embed the thread: dsm.Node has its default Client's methods, TC its Worker's threadOps)"; exit 1; fi
	@if grep -nE 'chan \*network\.Message' $$(ls internal/dsm/*.go | grep -v -e '_test\.go$$' -e '/client\.go$$'); then \
		echo "lint: a message channel outside the router (hand a thread its message with n.router.route or deliver)"; exit 1; fi
	@if grep -nE '<-[^=]*Done\(\)' $$(ls internal/core/*.go | grep -v '_test\.go$$'); then \
		echo "lint: a Done() receive in core (a thread waits in dsm's router, which unwinds it at shutdown)"; exit 1; fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' '\.TrySend[A-Za-z]*\(' internal; then \
		echo "lint: a TrySend call (sends never block or drop: use Send/SendAt)"; exit 1; fi
	@if grep -nE 'make\(\[\]byte, PageSize\)|bytes\.Clone\(' $$(ls internal/dsm/*.go | grep -v -e '_test\.go$$' -e '/pool\.go$$' -e '/debug\.go$$'); then \
		echo "lint: a page-sized or cloned byte buffer outside the pool (take it from System.pool: get, clone)"; exit 1; fi
	@if grep -rn --include='*.go' --exclude='*_test.go' '//nowlint:allow' internal | grep -v '^internal/analysis/'; then \
		echo "lint: a //nowlint:allow waiver in internal/ (restructure the code so the analyzer holds)"; exit 1; fi
	@if grep -nE 'TryLock\(' $$(ls internal/dsm/*.go | grep -v '_test\.go$$'); then \
		echo "lint: a TryLock in dsm (only the application thread purges; no server path takes the fetch lock)"; exit 1; fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' '\.SendFrameAt\(' internal; then \
		echo "lint: a SendFrameAt call (every protocol datagram carries one message: use SendAt)"; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over every package, including the concurrent
# harness grid and the simulated DSM/MPI runtimes.
test-race:
	$(GO) test -race ./...

# SMP-backend smoke under the race detector: omp-smp is the hybrid
# backend's one-island case, so this runs the backend conformance suite
# plus the core runtime tests with every thread a dsm.Client of one node's
# team — reductions included, whose partials cross goroutines through the
# node's router on the island join (TestReduction*) — the one-island pins
# (TestHybridIslandsOne*: the SMP cost model's clocks, zero traffic, no
# ledger) and the heap tests (TestSMPHeap*: an access past the last
# allocation panics; TestSMPMalloc*: a region may allocate, as on the
# NOW). The full test-race pass subsumes it; it runs FIRST in ci (and
# stands alone for the dev loop) so an ordering bug on one island fails in
# seconds instead of after the whole race suite.
smp-race:
	$(GO) test -race -run 'TestBackendConformance|TestSMPZeroTraffic|TestSemaphorePipelineDirectives|TestCriticalMutualExclusion|TestBarrierDirective|TestReduction|TestHybridIslandsOne|TestSMPHeap|TestSMPMalloc' ./internal/core

# Hybrid-backend smoke under the race detector: the conformance scenarios
# on the NOW-of-SMPs backend (all island counts) plus the degenerate-limit
# pins, the reduction tests (island-mates hand their partials to the
# island join through the node's router, and the node's thread carries
# them in its dsm join), one real application (Water at a two-island
# split), dsm's own island tests (TestIsland*: a region forked to every
# team thread and joined with the fork-time and finish-time clock rules,
# the island barrier's gather and broadcast, a mate's panic ending the
# run, and the node engine lock that keeps an island's flushes apart), the
# island lock-grant path (a grant between islands takes fetchMu beside
# island-mates' fault rounds) and the router every node delivers through
# (two clients of a default node passing a lock, semaphores and a
# condition; tagged grants arriving in reverse request order; a malformed
# reply ending the run with an error), the page walk every typed access
# goes through (TestPageWalkAccessors) and the one manager round every
# lock, semaphore, condition and flush request takes: its traffic pins,
# the semaphore, condition-variable, lock-chain and flush suites, a
# malformed request ending the run with an error, and an island thread
# releasing or waiting on a lock its mate holds. Like smp-race it runs
# early in ci so an island-teams ordering bug fails in seconds.
hybrid-race:
	$(GO) test -race -run 'TestBackendConformance|TestHybrid|TestReduction' ./internal/core
	$(GO) test -race -run 'TestHybridRaceSmoke' ./internal/harness
	$(GO) test -race -run 'TestIsland|TestLockGrantIsland|TestReplyRouter|TestMalformedReply|TestPageWalkAccessors|TestSyncRound|TestSemaphore|TestConditionVariable|TestCondWait|TestLockChain|TestFlush|TestMalformedSyncRequest|TestSyncNonHolder' ./internal/dsm

# GC smoke under the race detector: the GC property suite (randomized
# lock/sema/cond interleavings, coordinator invariants — the episode
# trigger's gate included — bounded chains, the pressure trigger and, at
# GCPressure 1 since test scale never reaches the default threshold, the
# every-episode purge paths; and the purge rule on the application thread,
# with a consensus push that leaves the server's purges at none,
# TestGCPurgeRuleBothSides),
# the validation wave through the fetch exchange (TestGCWave*: request
# grouping, a wave of hundreds of requests), the one-round rebuild of a flushed copy, the zero-base first-touch pins, the
# wait-for-the-home rule (TestAcquireEpoch*: a waiting node's owed floor is
# claimed and finished across the application thread, its island-mates
# and the next episode, TestEpisodeSettle*), the span programs at GCPressure 1
# (both triggers armed on programs that mix locks and barriers), the lock
# grants that carry diffs kept on interval records the collector frees
# (TestLockGrant*, and QSORT and TSP under the shadow-memory oracle), the
# recycled twins (TestTwinBuffers*: randomized omp- and tmk-shaped
# lock/barrier programs, no twin buffer shared, a twin only on a page dirty
# in the open interval and a diff on every own interval at each join or
# barrier) and exact-size diffs (TestMakeDiffExact*), the lazily kept
# per-page seen clocks against eager ones on randomized programs that flush
# (TestLazySeenMatchesEager), the encodes the modelled node owes — paid at
# a diff's first serve, grant or invalidation, or retired unpaid with the
# metadata gauge exact (TestDeferredDiff*) — the merged diffs a fetch
# exchange asks a creator for (TestMerge*: the merge property, one item for
# a fault round and for a validation wave, none under a held lock) plus the
# lock/semaphore applications — QSORT and Sweep3D at multiples of their
# test scale — with the collector forced to low pressure, the one-axis GC
# ablation, every app at GCPressure 1, and the full-scale Sweep3D cell
# whose wave must stay at the homes. The consensus pushes, episode waits
# and fetch-lock exclusion all exercise
# cross-goroutine edges, so this is where an ordering bug in the collector
# fails first.
gc-race:
	$(GO) test -race -run 'TestAcquireGC|TestAcqCoord|TestGC|TestFlushedCopy|TestZeroBase|TestHome|TestAcquireEpoch|TestEpisodeSettle|TestLockGrant|TestTwinBuffers|TestMakeDiffExact|TestLazySeen|TestDeferredDiff|TestMerge|TestSpanEquivalentToPageAtATime/.*/.*/pressure1' ./internal/dsm
	$(GO) test -race -run 'TestLockGrantOracle' ./internal/apps/qsort ./internal/apps/tsp
	$(GO) test -race -run 'TestAcquireGC|TestAblationGCRows|TestAblationGCTriggerGrid|TestEquivalenceCollectingEveryEpisode|TestAcquireWaveStaysAtHomes' ./internal/harness

# >8-node smoke under the race detector: the wide-team (16/32-thread)
# conformance scenario on every backend plus two real applications at 16
# processors on the NOW (3D-FFT: pure page traffic and a two-level tree
# barrier, on the default schedule and collecting at every episode, whose
# purge waves go through the sharded homes; Sweep3D: a 16-stage semaphore
# pipeline whose semaphores live on their waiters' nodes, so a server
# granting its own thread through the node's reply router is the common
# case), Sweep3D's
# placement tests, plus the hierarchical-consensus
# scenarios — tree-routed GC pushes with relays, departure waves built
# under one hold while acquire floors are owed, and the tree-vs-flat
# equivalence pin. The relay forwarding crosses the server/application
# goroutine boundary, so a race in it fails here first.
scale-race:
	$(GO) test -race -run 'TestBackendConformanceWideTeams' ./internal/core
	$(GO) test -race -run 'TestEquivalenceBeyondPaperScale/(3D-FFT|Sweep3D)/omp/p16|TestEquivalenceCollectingEveryEpisode/3D-FFT/omp/p16' ./internal/harness
	$(GO) test -race -run 'TestSemIDPlacesAtWaiter|TestTmkSyncMessagesPinned' ./internal/apps/sweep3d
	$(GO) test -race -run 'TestTreeVsFlatConsensusEquivalence|TestTreeBarrierAcquireEpochs|TestScaleTreeBarrierCorrectness' ./internal/dsm

# Fetch-exchange smoke under the race detector: the span ≡ page-at-a-time
# programs under the shadow-memory oracle, on the every-episode schedule
# and the default one (reply payloads are installed as page copies and
# applied as diffs WITHOUT copying, so the race detector is what certifies
# the receiver really owns them), the two-clients-one-node overlap, the
# int32 bulk accessors, the cost pins of one-page and multi-page rounds
# (TestOnePageFaultCosts, TestOnePageTwoWritersHitInboundFloor,
# TestSpanCost*), the codec and its request cap, the page groups (a group
# round's cost pin, a group page nobody rewrote, groups with the collector
# off, none under a held lock, two threads of one node keeping their own
# groups — faulting at once included: TestGroup*), and one paging
# application whose transposes run on span rounds, and the whole pages
# that cross as their runs against zeros (TestWholePage*: the round trip,
# malformed items, a squash over a stale copy, a refetch after a flush).
span-race:
	$(GO) test -race -run 'TestSpan|TestOnePage|TestWireFetch|TestI32s|TestZeroBaseSpan|TestGroup|TestWholePage' ./internal/dsm
	$(GO) test -race -run 'TestFaultWaitLedger' ./internal/harness

# Service-mode smoke under the race detector: a short mixed stream (NOW,
# TreadMarks, and shared-memory classes) through the scheduler — the
# dispatch loop, the weighted execution pool, fresh backend construction
# and teardown per job, and the checkpoint census all cross goroutines,
# so a lifecycle race fails here in seconds. The scheduler-level unit
# tests (replay, width identity, checkpoints) ride along.
serve-race:
	$(GO) run -race ./cmd/nowbench -serve -scale test -jobs 60 -arrival 40 \
		-mix 'TSP:omp:p4,QSORT:tmk:p4,Water:omp-smp:p4:w=2,3D-FFT:mpi:p4' >/dev/null
	$(GO) test -race -short -run 'TestServe' ./internal/serve

# Short coverage-guided fuzz pass over the wire decoders (trailer,
# vector clock, frame envelope, the join's trailer-then-tail, the lock
# grant's trailer-then-data, the fetch exchange's request and reply, and
# every synchronization request of the manager round):
# the seeds replay instantly, then a few seconds of mutation hunt for
# panics that escape the wireError bound. The second target decodes the
# trailer against a receiver's interval store as well and fails unless both
# decodes panic alike. The corpus-less smoke keeps ci deterministic-ish and
# fast; run
#   $(GO) test -fuzz FuzzWireDecode ./internal/dsm
# open-endedly when touching the codec.
fuzz-wire:
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime 5s ./internal/dsm
	$(GO) test -run '^$$' -fuzz FuzzWireStoreDecode -fuzztime 5s ./internal/dsm

# One-iteration benchmark smoke: compiles and executes every benchmark
# family (Table 1 / Figure 6 / Table 2 / micro / ablations) so they can
# never silently rot.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

bench:
	$(GO) test -run '^$$' -bench=. -benchmem

# Per-layer host-allocation benchmarks (B/op, allocs/op): the DSM's write
# fault → interval close → diff encode cycle, a cold fault, a 16-page group
# round, a warm diff fetch round whose diff, reply and kept copy come from
# the System's buffer pool, a 2-node lock round trip (node 1's default client, two clients
# of node 1 taking turns) and its semaphore and condition-variable
# counterparts, an 8-node region fork/join in which every node rewrites a page
# (with its virtual time per region), makeDiff and mergeDiffs on sparse
# and dense pages, a whole-page reply's encode on dense, sparse and
# all-zero pages, a 64-node departure trailer's decode (fresh and duplicate records)
# and encode, a system's New+Close at 4 and 64 nodes (nothing run), an
# omp-smp program's construction, an 8-rank MPI Reduce and
# Allgather of float payloads, one 3D-FFT transpose through its helpers,
# one Sweep3D slab step and one Barnes tree build (fresh and into a kept
# tree). The results/ALLOC_*.md records hold before/after figures.
ALLOC_PKGS = ./internal/dsm ./internal/core ./internal/mpi ./internal/apps/fft3d ./internal/apps/sweep3d ./internal/apps/barnes
alloc-bench:
	$(GO) test -run '^$$' -bench . -benchmem $(ALLOC_PKGS)

# The P = 8..128 scaling-wall study (tree-routed consensus, batched
# departure waves, P-aware GC trigger). The flat-consensus baseline it
# was once compared against is recorded in the README. Add SCALE=test
# for a fast run; at full scale the 64- and 128-node cells take serious
# time.
SCALE ?= full
bench-scaling:
	$(GO) run ./cmd/nowbench -scaling -scale $(SCALE)

# Alternating parent/head benchmark pairs of the COMMITTED trees on all five
# BENCHMARK.json workloads (~45 min at PAIRS=10), then the median
# [q1, q3] tables: the before/after a PR checks in as results/BENCH_<n>.
#   make bench-pairs PARENT=<ref> [PAIRS=10] [OUT=results/BENCH_<n>]
PAIRS ?= 10
OUT ?= results/BENCH_pairs
bench-pairs:
	@[ -n "$(PARENT)" ] || { echo "usage: make bench-pairs PARENT=<ref> [PAIRS=10] [OUT=results/BENCH_<n>]"; exit 2; }
	results/pairs.sh $(PARENT) $(PAIRS) > $(OUT).jsonl
	$(GO) run ./results/summarize $(OUT).jsonl | tee $(OUT).md

# Output a host-only change must leave byte-identical, in one file: the
# -micro table, and the LU/omp, LU/tmk and 3D-FFT/omp cells at 8
# processors with GOMAXPROCS=1 (one goroutine runs at a time, so lock
# grants interleave alike run to run). Write it at two commits and diff:
#   make same-output OUT=<file>
SAME_CELLS = LU:omp LU:tmk 3D-FFT:omp
same-output:
	@case "$(origin OUT)" in file|undefined) echo "usage: make same-output OUT=<file>"; exit 2;; esac
	{ $(GO) run ./cmd/nowbench -micro && \
	  for cell in $(SAME_CELLS); do \
	    GOMAXPROCS=1 $(GO) run ./cmd/nowomp -app $${cell%%:*} -impl $${cell##*:} -procs 8 || exit 1; \
	  done; } > $(OUT)

# Regenerate every paper artifact at full scale.
tables:
	$(GO) run ./cmd/nowbench -all

ci: build vet fmt-check lint test smp-race hybrid-race gc-race scale-race span-race serve-race test-race fuzz-wire bench-smoke
