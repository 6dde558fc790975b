GO ?= go

.PHONY: build cross-build test race vet fmt-check api-check api-update reach-check bench bench-all bench-smoke bench-tickpath bench-sched bench-fanout bench-power bench-scenario bench-frontier sched-smoke fanout-smoke power-smoke scenario-smoke frontier-smoke fuzz-smoke one-impl-check perf-check ci

build:
	$(GO) build ./...

# internal/tensor has an amd64 assembly kernel beside its portable one; this
# builds the tree, and vets the two packages that reach the kernel, for an
# architecture that gets only the portable one, so that path cannot rot
# unbuilt. Offline; nothing is run.
cross-build:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/nn/

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# API-compatibility gate: the exported surface of the root package must
# match the checked-in golden snapshot. Deliberate API changes are recorded
# with api-update and reviewed as part of the diff.
api-check:
	$(GO) test -run '^TestAPISnapshot$$' .

api-update:
	$(GO) test -run '^TestAPISnapshot$$' . -update-api

# Reachability gate: every exported identifier under internal/ must be
# referenced by a non-test file of this module or of perf/, or be listed with
# a reason in testdata/reach_allow.txt — a list that may only shrink
# (reach_test.go holds the scan and the ratchet).
reach-check:
	$(GO) test -run '^TestReachCheck$$' .

# Kernel/inference micro-benchmarks (GEMM, conv, LSTM, model inference) and
# the tick-to-trade hot-path benchmarks (wire decode, book ops, end-to-end
# pipeline), archived as JSON so runs can be diffed. See EXPERIMENTS.md.
bench: bench-sched
	$(GO) test -run=^$$ -bench=. -benchmem ./internal/tensor/ ./internal/nn/ \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_kernels.json
	$(GO) test -run=^$$ -bench=. -benchmem \
		./internal/sbe/ ./internal/lob/ ./internal/latency/ ./internal/core/ \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_tickpath.json

# The scheduling-policy comparison (every registered strategy × three
# traffic regimes, with the Q-table trained first), archived as JSON so
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

# The signal fan-out experiment: propagation percentiles and conflation
# drops at 1k/10k/100k subscribers, the 1→8 shard sweep (modelled
# throughput), and the faultnet chaos scenario, archived as JSON. See
# EXPERIMENTS.md.
bench-fanout:
	$(GO) run ./cmd/ltbench -exp fanout -json BENCH_fanout.json

# Every benchmark in the repo (including the sim-engine harness).
bench-all:
	$(GO) test -run=^$$ -bench=. -benchmem ./...

# One iteration of each kernel benchmark and of the scheduling-decision
# benchmarks: a CI-speed check that the benchmark code itself still compiles
# and runs.
bench-smoke:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./internal/tensor/ ./internal/nn/ ./internal/sched/

# One iteration of each tick-path benchmark plus the allocation regression
# tests over the hot path (decode-into, book ops, snapshot, histogram record,
# model Predict, a policy's Decide and a scheduling-board round at zero, and
# the live loop itself — MultiTrader.OnDatagram inline and through a worker
# lane, order out and ack back — at its pinned counts), with the lane
# dispatch benchmark (ns, writes and allocs per order at batch 1, 4 and 16):
# allocation creep fails CI here.
bench-tickpath:
	$(GO) test -run='ZeroAlloc' -bench=. -benchtime=1x \
		./internal/sbe/ ./internal/lob/ ./internal/latency/ ./internal/core/ ./internal/nn/ ./internal/sched/
	$(GO) test -run='^TestLiveLoopAllocsPerTick$$' -bench='^BenchmarkLaneDispatch$$' -benchtime=1x ./internal/trader/

# Policy-matrix smoke: the full scheduler registry × three workloads over a
# small trace via bench.RunMatrix, checked byte-identical across worker
# counts, plus the per-policy engine invariants.
sched-smoke:
	$(GO) test -run 'TestSchedMatrix|TestEveryPolicyRespectsEngineInvariants' \
		./internal/bench/ ./internal/core/

# Fan-out smoke: a scaled-down signal-gateway experiment (scale rows, shard
# sweep, faultnet chaos) with exact delivery/drop accounting, plus the
# AllocsPerRun gates proving the lane-side publish hook is 0 allocs/op both
# idle and with live subscribers.
fanout-smoke:
	$(GO) test -run 'TestFanoutSmoke' ./internal/bench/
	$(GO) test -run 'TestPublishZeroAlloc' ./internal/signal/

# Power-governor smoke: the sim-vs-serve limited-power differential (exact
# response, per-cause drop and DVFS-event agreement at N=1), the recovery
# claim (governor strictly reduces DeferredPower drops vs the status quo),
# and under the race detector the budget-safety property with concurrent
# lanes plus the scheduling board's random-operation ledger property.
power-smoke:
	$(GO) test -run 'TestSimServeLimitedPowerDifferential|TestGovernorRecoversDeferredPowerDrops' \
		./internal/bench/
	$(GO) test -race -run 'TestGovernorPowerCapProperty' ./internal/serve/
	$(GO) test -race -run 'TestBoard' ./internal/sched/

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
# writing its own decide → save → retry → commit loop again.
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

# perf/ is a nested module, so the root's build, vet and test never compile
# it: without this a change could delete an API the benchmark is built on
# (trader.NewMulti, serve.Submit, ...) with a green gate.
perf-check:
	cd perf && $(GO) vet . && $(GO) test .

# Scenario smoke: the chaos-matrix shape/non-vacuity check and the
# three-way sim/serve/venue differential — one scenario byte stream must
# produce identical per-cause miss attribution through the offline
# simulator, the serving runtime, and a live venue's UDP republication.
scenario-smoke:
	$(GO) test -run 'TestScenarioMatrixSmoke|TestScenarioSimServeVenueDifferential' \
		./internal/bench/
	$(GO) test -run 'TestScenario' ./internal/trader/

# Frontier smoke: the scaled-down inference-compute frontier (every zoo
# variant trained and priced, Pareto monotonicity, burst recovery strictly
# above the drop-only baseline with degrades accounted), the degrade-ladder
# invariants property-checked across the whole scheduler registry, the
# serve-side ladder admission/end-to-end/validation tests, and the
# AllocsPerRun gate proving the lane-side model-switch path is 0 allocs/op.
frontier-smoke:
	$(GO) test -run 'TestFrontierSmoke' ./internal/bench/
	$(GO) test -run 'TestQuickDegradeInvariants' ./internal/sched/
	$(GO) test -run 'TestDegradeLadder|TestTierConfigValidation|TestModelSwitchPathNoAllocs' ./internal/serve/

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
# arm64, which has no assembly kernel), the API snapshot,
# the test suite under the race detector (which covers the concurrent
# serving runtime in internal/serve and the signal gateway), single-
# iteration benchmark smoke runs (kernels and the zero-alloc tick path),
# the scheduling policy-matrix smoke, the signal fan-out smoke with its
# publish-hook allocation gate, the power-governor smoke (sim-vs-serve
# differential, recovery claim, budget-safety race test), the scenario
# smoke (chaos-matrix shape plus the three-way sim/serve/venue scenario
# differential and the degraded-mode trader regressions), the frontier
# smoke (zoo training/pricing, degrade-ladder invariants and the
# model-switch allocation gate), a short fuzz pass over the wire decoders,
# the one-implementation check on the scheduling-board rules and the
# profiled table, the reachability gate on internal/'s exported names, and
# the vet-and-test pass over the nested perf/ benchmark module.
ci: fmt-check vet build cross-build api-check reach-check one-impl-check perf-check race bench-smoke bench-tickpath sched-smoke fanout-smoke power-smoke scenario-smoke frontier-smoke fuzz-smoke
