GO ?= go

.PHONY: build cross-build test race verify-worlds vet fmt-check api-check api-update reach-check bench-all bench-smoke bench-tickpath bench-sched bench-power bench-scenario bench-frontier bench-pin fuzz-smoke one-impl-check perf-check ci

build:
	$(GO) build ./...

# internal/tensor has an amd64 assembly kernel beside its portable one; this
# builds the tree, and vets the two packages that reach the kernel, for an
# architecture that gets only the portable one, so that path cannot rot
# unbuilt, and runs the nn bit pins and differentials as a 32-bit x86 binary
# (GOARCH=386 builds no assembly and runs on an amd64 host), so the portable
# kernel must give the pinned bits too. internal/trader reads its feed with
# recvmmsg on Linux and one datagram at a time elsewhere; the darwin build
# keeps the second path compiling. Offline.
cross-build:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/nn/
	GOARCH=386 $(GO) test -run 'TestPresetModelsPinned|TestPackedForwardMatchesGemmNT|TestDenseSkipsZeroGroupsExactly|TestStreamedModelMatchesFreshModel' ./internal/nn/
	GOOS=darwin $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The generated-world harness at scale: 500 seeded worlds
# (internal/serve/worlds_test.go), each a perturbed market scenario under a
# drawn deployment, run through the simulator and the serving runtime
# against every named invariant, with the worlds/s it ran at. A failing
# world prints one shrunk line for worldRegressions.
verify-worlds:
	@out=$$($(GO) test -count=1 -run '^TestWorlds$$' -v ./internal/serve/ -worlds 500 2>&1); st=$$?; \
	echo "$$out" | grep -vE '^ *(=== (RUN|PAUSE|CONT)|--- PASS)'; exit $$st

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# API-compatibility gate: the exported surface of the root package — with
# the exported methods and fields of each internal type it re-exports by
# alias — must match the checked-in golden snapshot. Deliberate API changes
# are recorded with api-update and reviewed as part of the diff.
api-check:
	$(GO) test -run '^TestAPISnapshot$$' .

api-update:
	$(GO) test -run '^TestAPISnapshot$$' . -update-api

# Reachability gate: the tree is type-checked from source (go/types) and
# every declaration under internal/ must be reached from a non-test file of
# this module or of perf/ — a function, type, constant or variable by a use,
# a method by a call or an interface it satisfies, an exported field by a
# write, an unexported field by a read — and every facade With… option by
# some file, tests included; packages only tests import are test support,
# and the members of types the facade re-exports are public API.
# Anything else is listed with a reason in testdata/reach_allow.txt, a list
# that may only shrink (reach_test.go holds the scan, its rule tests and the
# ratchet).
reach-check:
	$(GO) test -run '^TestReachCheck$$' .

# The scheduling-policy comparison (every registered strategy × three
# traffic regimes), archived as JSON so
# policy regressions show up in the diff. See EXPERIMENTS.md.
bench-sched:
	$(GO) run ./cmd/ltbench -exp sched-matrix -json BENCH_sched.json -parallel 0

# The limited-power recovery sweep: the calibrated tight-horizon workload
# through the simulator and the serving runtime with the Algorithm-2 power
# governor on and off, archived as JSON. See EXPERIMENTS.md.
bench-power:
	$(GO) run ./cmd/ltbench -exp power-sweep -json BENCH_power.json

# The scenario × configuration chaos matrix: every registered market
# scenario (quiet, opening burst, flash crash, halt/resume, thin book,
# correlated multi-symbol shock, trading day) replayed through the
# instrumented simulator on three capacity rungs, with per-cause miss
# attribution, archived as JSON. See EXPERIMENTS.md.
bench-scenario:
	$(GO) run ./cmd/ltbench -exp scenario-matrix -json BENCH_scenario.json -parallel 0

# The inference-compute frontier: the model zoo trained on teacher-labelled
# synthetic LOB windows and priced on the CGRA latency tables (accuracy ×
# tick-to-trade latency × batch size), plus the flash-crash and opening
# burst scenarios with degrade-to-cheaper-model switching on and off,
# archived as JSON. See EXPERIMENTS.md.
bench-frontier:
	$(GO) run ./cmd/ltbench -exp frontier -json BENCH_frontier.json

# The modelled archives are deterministic, so regenerating one must give
# the committed bytes: the cmd/ltbench test reruns sched-matrix, power-sweep
# and scenario-matrix into a temporary directory and compares each result
# with its BENCH_*.json (its table is the one experiment → file map; plain
# `go test` runs it too). frontier is left out because it trains the model
# zoo for minutes.
bench-pin:
	$(GO) test -count=1 -run '^TestRunScenarioMatrixArchive$$' ./cmd/ltbench/

# Every benchmark in the repo (including the sim-engine harness).
bench-all:
	$(GO) test -run=^$$ -bench=. -benchmem ./...

# One iteration of each kernel benchmark, of the scheduling-decision
# benchmarks and of the set-up benchmarks (scenario generation and the
# matching engine under it, with their allocations): a CI-speed check that
# the benchmark code itself still compiles and runs.
bench-smoke:
	$(GO) test -run=^$$ -bench=. -benchtime=1x -benchmem ./internal/tensor/ ./internal/nn/ ./internal/sched/ \
		./internal/scenario/ ./internal/exchange/

# One iteration of each tick-path benchmark plus the allocation regression
# tests over the hot path (decode-into, iLink frame decode-into, book ops,
# snapshot, histogram record, model Predict, a policy's Decide and a
# scheduling-board round at zero, and the live loop itself —
# MultiTrader.OnDatagram inline and through a worker lane, order out and ack
# back, the same loop from socket to socket over loopback UDP and TCP (one
# datagram and 16-datagram bursts per tick), and
# the venue's side of a new + cancel pair over a loopback session — at
# their pinned counts), with the lane
# dispatch benchmark (ns, writes and allocs per order at batch 1, 4 and 16),
# and the set-up path's pins: scenario generation at its measured count and
# the engine's AppendSubmit at zero, with one generation benchmark run.
# Allocation creep fails CI here.
bench-tickpath:
	$(GO) test -run='ZeroAlloc' -bench=. -benchtime=1x \
		./internal/sbe/ ./internal/orderentry/ ./internal/lob/ ./internal/latency/ ./internal/core/ ./internal/nn/ ./internal/sched/
	$(GO) test -run='^(TestLiveLoopAllocsPerTick|TestSocketLoopAllocsPerTick)$$' -bench='^BenchmarkLaneDispatch$$' -benchtime=1x ./internal/trader/
	$(GO) test -run='^TestServerOrderPathAllocs$$' ./internal/venue/
	$(GO) test -run='^(TestSourceTicksAllocs|TestAppendSubmitAllocs)$$' -bench='^BenchmarkSourceTicks$$' -benchtime=1x -benchmem \
		./internal/scenario/ ./internal/exchange/

# One implementation per scheduling rule. (1) Algorithm 2's steps and the
# DVFS retime rule are applied by sched.Board alone, on its sched.Table
# (sched.go defines the rule). (2) Nothing on
# a decision path evaluates the cost model: inside internal/sched only
# table.go may call the definitions or rebuild the DVFS grid — the four lines
# let through are the definitions themselves (TotalNanos, PPW), Validate and
# StaticDVFSFor — and the simulator's engine and the serving runtime never
# do. A hit is a second enumeration or a per-decision model evaluation
# growing back: read the numbers from the Table instead. (3) Some layer state
# is a function of the weights, and whatever writes the weights — Init and
# Update today; a LoadWeights or a quantiser tomorrow — must refresh it: a
# non-test function of internal/nn that names Conv2D and writes a .w or .b
# must call repack() (the transposed copy the in-place lowering reads and the
# sliding-window memo's kept output, nn/conv.go), and one that names Dense or
# LSTM and writes a .w, .wx or .wh must call repack() (the transposed copy
# the panel kernel reads, nn/layer.go). (4) The
# live loop keeps a packet one way and writes an order one way: a queue copies
# into storage its lane owns (sbe.PacketBuffer.CopyPacket), so neither
# internal/serve nor internal/trader calls sbe.ClonePacket, and the Client's
# only conn.Write calls are the one coalesced order write in sendLocked and
# the session's own frames (negotiate, establish, heartbeat) — a hit is a
# per-packet allocation or a per-order write growing back. (5) internal/tensor
# has one multiply kernel, one multiply loop and no concurrency: no non-test
# file but panel.go declares a func MulAdd…, outside panel.go (the portable
# panel kernel) only the Axpy wrapper calls axpy, and no non-test file of the
# package has a go statement, a sync.WaitGroup or a channel — a hit is a
# second kernel, a second GEMM or a worker pool growing back. (6) A policy is
# asked only inside the Board's admission step: no non-test file calls
# .Decide( outside internal/sched's board.go and degrade.go (the ladder walk)
# but for PickIssueExplained's one decision in sched.go — a hit is an engine
# writing its own decide → save → retry → commit loop again. (7) A layer
# learns that its input is the last one moved up a row from the input's
# stream stamp alone: no non-test file of internal/nn names bytes.Equal,
# sameBits or unsafe — a hit is the row comparison growing back. (8) A stamp
# is a promise about data, made only by what produces stamped data: no
# non-test file calls SetStamp( outside internal/tensor, the offload engine
# (internal/offload/offload.go), the memo (internal/nn/memo.go) and the crop
# (internal/nn/layer_zoo.go). (9) One order-flow generator: no non-test
# file builds a matching engine with a publish sink outside the scenario
# world (internal/scenario/worldgen.go), which the live venue plays too —
# an engine built with a nil sink publishes nothing, so perf's
# engine-timing stage passes — and (10) the deleted traffic paths (the
# bench traffic config, the feed generator, the legacy adapter, the power
# sweep's private feed, the venue's noise trader with its knobs and switch,
# and its raw-publish side door) are named in no Go file: a hit is a second
# traffic vocabulary growing back. (11) One way to choose
# Algorithm 1's objective and batch ladder: the scheduler registry ranks the
# candidates (ppw, fcfs, greedy) and workload scheduling means
# DefaultBatchOptions, so no non-test Go file names the deleted objective
# field, its type, a custom batch ladder or their facade options — a hit is
# a second selector growing back. (12) A policy decides from Algorithm 1's
# four inputs (sched.SchedContext): no non-test Go file names IdleAccels or
# RoundRobinScheduler — a hit is the idle-count input, or the round-robin
# baseline that alone read it (identical to greedy under a work-conserving
# engine), growing back. (13) A wire reader decodes iLink business frames
# into storage it owns: no non-test Go file under internal/ or cmd/ calls
# orderentry.DecodeFrame( — the wrapper over fresh storage, kept for callers
# outside the tree — so a hit is a per-frame allocation growing back into a
# read loop; use orderentry.DecodeFrameInto. (14) One full-queue policy and
# one venue hand-off: a full lane queue evicts its oldest query, and a venue
# connection applies its requests to the scenario world under the server's
# lock. No Go file names Backpressure, serverReq or snapReq — a hit is a
# blocking submitter or the venue's engine mailbox growing back. (15) One
# registry row per idea: the scheduler registry is ppw against the fcfs and
# greedy baselines. No Go file names SJFScheduler, QScheduler, QConfig,
# TrainQ, byLatency or q_train_episodes — a hit is the second single-issue
# baseline or the tabular learner (and its training pass before every
# matrix run) growing back. (16) The signal gateway is measured by its own
# tests and benchmarks: no Go file names RunFanout, FanoutConfig, FanoutRow,
# FanoutReport, FanoutJSON or ShardBusyNanos — a hit is the retired fan-out
# experiment, or the per-shard makespan clock only it read, growing back.
# (17) Every checked-in BENCH archive is modelled and pinned by its seed;
# host figures come from perf or a paired go test -bench run. No Go file,
# this Makefile or a CI workflow names the retired bench-output converter
# command or the host-measured kernel and tick-path archives it wrote (the
# pattern spells the names so that this file does not match itself) — a hit
# is a host-measured archive growing back. (18) The back-test engine keeps
# the accounting: sim.RunWithOptions integrates each system's reported draw
# into the energy total and emits the load samples, and a system model only
# reports its load (sim.Loaded). No non-test Go file calls .OnSample( outside
# the engine (internal/sim/sim.go) and the serving runtime's locked probe
# (internal/serve/runtime.go), and none declares an EnergyJoules method — a
# hit is a model keeping its own energy integral or sampling itself again.
# (19) Every wire client reconnects through session.Run: no non-test Go file
# outside internal/session calls backoff.Next( — a hit is a second copy of
# the dial/serve/back-off loop. (20) One path per idea where only tests took
# the second: a back-test's traffic is its ticks argument (a scenario passes
# its Ticks()), and the venue fills orders only on a session that
# negotiated and established. No Go file names WithScenario, and no
# non-test file of internal/venue names a legacy (implicit) session — a hit
# is the option that substituted a scenario for the ticks, or the
# handshake-less session, growing back.
one-impl-check:
	@bad=$$(grep -rnE '\.(RetimedRemainingNanos|savePower|redistribute)\(' \
		--include='*.go' --exclude='*_test.go' . \
		| grep -vE '^\./internal/sched/(board|table)\.go:'); \
	if [ -n "$$bad" ]; then \
		echo "scheduling-board rule applied outside sched.Board:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE '\.(TotalNanos|BusyPower|PPW|InferenceNanos)\(|DVFSTable\(\)' \
		--include='*.go' --exclude='*_test.go' internal/sched internal/core/system.go internal/serve \
		| grep -vE '^internal/sched/table\.go:' \
		| grep -vF -e 'tInfer := c.Kernel.InferenceNanos(c.Spec, d, batch)' \
			-e 'return ppw(c.TotalNanos(d, batch), c.BusyPower(d), batch)' \
			-e 'table := c.Spec.DVFSTable()' \
			-e 'return spec.DVFSTable()[0], false'); \
	if [ -n "$$bad" ]; then \
		echo "cost model evaluated outside sched.Table:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(for rule in 'Conv2D w|b repack' 'Dense|LSTM w|wx|wh repack'; do set -- $$rule; \
		for f in $$(ls internal/nn/*.go | grep -v _test.go); do awk -v file=$$f -v typ="$$1" -v fld="$$2" -v must="$$3" ' \
		BEGIN { ref = "[[:alnum:]_]+\\.(" fld ")(\\.Data\\(\\))?"; \
			write = "\\.(" fld ")(\\.(FillRandn|RoundBF16)\\(|(\\.Data\\(\\))?\\[[^]]*\\] *[-+*\\/]?=[^=]| *=[^=])" \
				"|(copy|clear)\\(" ref "[,)]|sgdStep\\([^,]*, *" ref ",|Axpy\\(.*, *" ref "\\)" } \
		function report() { if (wrote && !called) print file ": " fn " — wants " must "()" } \
		/^func / { report(); fn = $$0; named = ($$0 ~ typ); wrote = 0; called = 0 } \
		named && $$0 ~ write { wrote = 1 } \
		index($$0, must "()") { called = 1 } \
		END { report() }' $$f; done; done); \
	if [ -n "$$bad" ]; then \
		echo "weights written without refreshing what is derived from them:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnF 'sbe.ClonePacket(' --include='*.go' --exclude='*_test.go' internal/serve internal/trader; \
		grep -nHF 'conn.Write(' internal/trader/client.go \
		| grep -vF -e 'if _, err := c.conn.Write(c.sendBuf); err != nil {' \
			-e 'if _, err := conn.Write(neg); err != nil {' \
			-e 'if _, err := conn.Write(est); err != nil {' \
			-e 'if _, err := conn.Write(hb); err != nil {'); \
	if [ -n "$$bad" ]; then \
		echo "a second packet-retention path or order write:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE '^func (\([^)]*\) *)?MulAdd' --include='*.go' --exclude='*_test.go' internal/tensor \
			| grep -vE '^internal/tensor/panel\.go:'; \
		grep -rnE '(^|[^[:alnum:]_])axpy\(' --include='*.go' --exclude='*_test.go' internal/tensor \
			| grep -vE '^internal/tensor/panel\.go:|^internal/tensor/gemm\.go:[0-9]+:[[:space:]]+axpy\(a, x, y\)$$'; \
		awk '{ code = $$0; sub(/\/\/.*/, "", code) } \
			code ~ /(^|[[:space:]{;])go[[:space:]]+[[:alnum:]_(]|sync\.WaitGroup|(^|[^[:alnum:]_])chan([^[:alnum:]_]|$$)|<-/ \
			{ print FILENAME ":" FNR ": " $$0 }' $$(ls internal/tensor/*.go | grep -v _test.go)); \
	if [ -n "$$bad" ]; then \
		echo "a second multiply kernel or loop, or a goroutine fan-out, in internal/tensor:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnF '.Decide(' --include='*.go' --exclude='*_test.go' . \
		| grep -vE '^\./internal/sched/(board|degrade)\.go:' \
		| grep -vE '^\./internal/sched/sched\.go:[0-9]+:[[:space:]]+dec := NewPPWScheduler\(cfg\)\.Decide\(SchedContext\{$$'); \
	if [ -n "$$bad" ]; then \
		echo "an admission decision outside sched.Board.Admit:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE 'bytes\.Equal|sameBits|unsafe' $$(ls internal/nn/*.go | grep -v _test.go)); \
	if [ -n "$$bad" ]; then \
		echo "a row comparison in internal/nn (trust the stream stamp):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnF 'SetStamp(' --include='*.go' --exclude='*_test.go' . \
		| grep -vE '^\./internal/(tensor/[^/]*|offload/offload|nn/memo|nn/layer_zoo)\.go:'); \
	if [ -n "$$bad" ]; then \
		echo "a stream stamp set outside its producers:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnF 'exchange.New(' --include='*.go' --exclude='*_test.go' . \
		| grep -vE '^\./internal/scenario/worldgen\.go:' \
		| grep -vE ', nil\)$$'); \
	if [ -n "$$bad" ]; then \
		echo "a second order-flow generator (a publishing matching engine):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE 'TrafficConfig|NewGenerator|FromTraffic|powerFeed|noiseTrader|NoiseInterval|NoiseSeed|PublishRaw|SetNoise' \
		--include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "a deleted traffic path named again:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE '\b(IssuePolicy|BatchOptions|WithPolicy|WithBatchOptions)\b|\bsched\.Policy\b' \
		--include='*.go' --exclude='*_test.go' .); \
	if [ -n "$$bad" ]; then \
		echo "a second way to choose Algorithm 1's objective or batch ladder:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE 'IdleAccels|RoundRobinScheduler' --include='*.go' --exclude='*_test.go' .); \
	if [ -n "$$bad" ]; then \
		echo "a scheduling input no policy reads, or the rr baseline that read it:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnF 'orderentry.DecodeFrame(' --include='*.go' --exclude='*_test.go' internal cmd); \
	if [ -n "$$bad" ]; then \
		echo "an iLink read loop decoding into fresh storage (use DecodeFrameInto):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE 'Backpressure|serverReq|snapReq' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "a blocking submitter or the venue's engine mailbox named again:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE 'SJFScheduler|QScheduler|QConfig|TrainQ|byLatency|q_train_episodes' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "a deleted scheduler registry row named again:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE 'RunFanout|FanoutConfig|FanoutRow|FanoutReport|FanoutJSON|ShardBusyNanos' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "the retired fan-out experiment or its makespan counter named again:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE 'bench[j]son|BENCH_(kernels|tickpath)' --include='*.go' .; \
		grep -rnHE 'bench[j]son|BENCH_(kernels|tickpath)' Makefile .github/workflows); \
	if [ -n "$$bad" ]; then \
		echo "a host-measured bench archive or its converter named again:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnF '.OnSample(' --include='*.go' --exclude='*_test.go' . \
			| grep -vE '^\./internal/(sim/sim|serve/runtime)\.go:'; \
		grep -rnE '^func \([^)]*\) *EnergyJoules\(' --include='*.go' --exclude='*_test.go' .); \
	if [ -n "$$bad" ]; then \
		echo "load sampled or energy integrated outside the back-test engine:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnF 'backoff.Next(' --include='*.go' --exclude='*_test.go' . \
		| grep -vE '^\./internal/session/'); \
	if [ -n "$$bad" ]; then \
		echo "a reconnect loop outside session.Run:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnF 'WithScenario' --include='*.go' .; \
		grep -rniE 'legacy|implicit' --include='*.go' --exclude='*_test.go' internal/venue); \
	if [ -n "$$bad" ]; then \
		echo "a scenario option beside the ticks argument, or the venue's handshake-less session:"; echo "$$bad"; exit 1; \
	fi

# perf/ is a nested module, so the root's build, vet and test never compile
# it: without this a change could delete an API the benchmark is built on
# (trader.NewMulti, serve.Submit, ...) with a green gate.
perf-check:
	cd perf && $(GO) vet . && $(GO) test .

# Short fuzz runs over the wire-facing decoders — the surfaces an exchange
# (or an attacker on the path) feeds directly. `go test -fuzz` takes exactly
# one matching target per invocation, hence one line per fuzzer. The sbe
# parser gets the double share: FuzzDecodePacketParity holds it to the
# reference decoder in oracle_test.go (fuzzing that oracle alone proves
# nothing about the parser, so FuzzDecodeMessage only runs its seeds).
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=^FuzzDecodeSessionFrame$$ -fuzztime=10s ./internal/orderentry/
	$(GO) test -run=^$$ -fuzz=^FuzzDecodeFrame$$ -fuzztime=10s ./internal/orderentry/
	$(GO) test -run=^$$ -fuzz=^FuzzDecodePacket$$ -fuzztime=10s ./internal/sbe/
	$(GO) test -run=^$$ -fuzz=^FuzzDecodePacketParity$$ -fuzztime=20s ./internal/sbe/
	$(GO) test -run=^$$ -fuzz=^FuzzDecodeFrame$$ -fuzztime=10s ./internal/signal/

# The full CI gate: formatting, static analysis, build (also cross-built for
# arm64, which has no assembly kernel, and for darwin, which has no
# recvmmsg), the API snapshot, the reachability
# gate on internal/'s declarations and the facade options, the
# one-implementation check on the scheduling-board rules and the profiled
# table, the vet-and-test pass over the nested perf/ benchmark module, the
# whole test suite under the race detector (without -short, so it includes
# the policy matrix, power-governor, scenario and frontier smoke tests, the
# concurrent serving runtime and signal gateway, and the generated worlds —
# TestWorlds at 12 worlds under -race),
# single-iteration benchmark smoke runs (kernels and the zero-alloc tick
# path, whose Predict gate skips under -race), the byte-for-byte pin of the
# modelled BENCH archives, and a short fuzz pass over the wire decoders.
ci: fmt-check vet build cross-build api-check reach-check one-impl-check perf-check race bench-smoke bench-tickpath bench-pin fuzz-smoke
