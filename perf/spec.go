package main

// metricDef describes one metric the benchmark prints. The tables below are
// the single source of the names, units and bounds; BENCHMARK.json repeats
// them for the driver and perf_test.go holds the two together.
type metricDef struct {
	name string
	unit string
	// kind is "host" for a measurement of this machine (noisy, compared by
	// threshold) or "modelled" for a figure the simulator computes from the
	// latency tables (deterministic for a seed, compared exactly).
	kind   string
	better string // "lower" or "higher"
	// bound is the share of the baseline's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// slack is an absolute worsening -compare always tolerates, for a metric
	// whose baseline is so small that a share of it is below the noise.
	slack float64
	// moves says, for a per-layer metric, which end-to-end metric on which
	// workload it is expected to move.
	moves string
}

// workloadDef names a workload and why it exists. The driver runs the ones
// that are listed in BENCHMARK.json; `-workload all` and the tests run all.
type workloadDef struct {
	name, why string
	listed    bool
}

// Two of the four are not listed, because ten runs of the same code do not
// agree within any bound the driver allows on this host. wire-ab-sched: its
// ten-run median of t2t_hot_p50_us moved by 27 % between two sets of runs.
// replay-modelled: single-threaded and compute-bound, it follows the host
// core's speed one to one (throughput_per_s medians of 160 000 and 109 000
// an hour apart, spreads of 22 and 25 % within a set). Two workloads also
// leave each run 56 s of the driver's time where four left 28 s.
var workloads = []workloadDef{
	{"wire-stub", "stub predictor, one feed, no admission: sockets, decode, arbiter, lane hand-off, book/feature and order encode do all the work", true},
	{"wire-cnn", "same wire path with the real SizedCNN(8,0) forward pass per tick: tensor/nn are over 90 % of the work, so wire-layer changes must not show here", true},
	{"wire-ab-sched", "A/B feeds with 2 % drops and pair swaps plus online admission and governor: the arbiter's dedupe/park path and the scheduler lock are on every tick", false},
	{"replay-modelled", "no sockets: registry scenarios through core.System+sim and inline modelled-clock serve; sched, governor and sim do all the work and modelled outputs are exact", false},
}

// endToEnd is what a user of the system sees, defined on every workload.
//
//	t2t_hot_p50_us   wire-*: send stamp → order frame read at the sink with the
//	                 smallest window outstanding (1; 2 on wire-ab-sched).
//	                 replay-modelled: host time of one inline serve.Submit
//	                 (packet bytes in → orders out), the same path without sockets.
//	throughput_per_s wire-*: orders read back per second with 64 ticks
//	                 outstanding. replay-modelled: simulated queries per host
//	                 second through core.System + sim.Run.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", kind: "host", better: "lower", bound: 0.25, slack: 0.25},
	{name: "t2t_hot_p50_us", unit: "us", kind: "host", better: "lower", bound: 0.25},
	{name: "throughput_per_s", unit: "1/s", kind: "host", better: "higher", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", kind: "host", better: "lower", bound: 0.25},
}

// perLayer is everything else the benchmark measures: the traced stage spans,
// the staged single-layer timings, the counters read at layer boundaries, and
// the end-to-end figures that are too noisy on this host, or defined on too
// few workloads, to carry a bound. A metric a workload does not exercise
// reads 0 there.
var perLayer = []metricDef{
	// Diagnostics: end-to-end in nature, reported without a bound.
	{name: "t2t_hot_p99_us", unit: "us", kind: "host", better: "lower", moves: "every workload: the tail of t2t_hot_p50_us's sample; same-code runs spread 11-27 % on this host, past any bound the driver allows"},
	{name: "t2t_paced_p50_us", unit: "us", kind: "host", better: "lower", moves: "wire-*: the open-loop latency a venue would see; dominated by goroutine wake-ups"},
	{name: "t2t_paced_p99_us", unit: "us", kind: "host", better: "lower", moves: "wire-*: as above; spread on this host exceeds any useful bound"},
	{name: "order_miss_share", unit: "ratio", kind: "host", better: "lower", moves: "wire-*: ticks unanswered within 50 ms ÷ ticks sent; 0 in a valid run"},
	{name: "serve_replay_queries_per_s", unit: "1/s", kind: "host", better: "higher", moves: "replay-modelled: packets per host second through inline serve; t2t_hot_p50_us there is its per-packet view"},
	{name: "modelled_response_share", unit: "ratio", kind: "modelled", better: "higher", moves: "replay-modelled: responded ÷ total over the sim leg; exact for a seed"},
	{name: "modelled_t2t_p99_us", unit: "us", kind: "modelled", better: "lower", moves: "replay-modelled: Metrics.P99LatencyNanos of trading-day × n2-limited; exact for a seed"},
	// Generator and trace validity.
	{name: "gen.late_p50_us", unit: "us", kind: "host", better: "lower", moves: "validity of the paced phase, not the program"},
	{name: "gen.late_p99_us", unit: "us", kind: "host", better: "lower", moves: "validity of the paced phase, not the program"},
	{name: "gen.achieved_rate_share", unit: "ratio", kind: "host", better: "higher", moves: "below 0.98 the paced phase is invalid"},
	{name: "trace.overhead_us", unit: "us", kind: "host", better: "lower", moves: "traced minus untraced t2t_hot_p50_us"},
	{name: "trace.stage_sum_err_share", unit: "ratio", kind: "host", better: "lower", moves: "how far the stage spans are from summing to the traced tick-to-order time"},
	// Traced stage spans (median per tick, hot phase).
	{name: "wire.udp_ns", unit: "ns", kind: "host", better: "lower", moves: "t2t_hot_p50_us on wire-stub; diluted on wire-cnn"},
	{name: "trader.ingest_ns", unit: "ns", kind: "host", better: "lower", moves: "throughput_per_s on wire-stub and wire-ab-sched"},
	{name: "serve.handoff_ns", unit: "ns", kind: "host", better: "lower", moves: "t2t_hot_p99_us and t2t_paced_p50_us on wire-stub (lane wake-up)"},
	{name: "nn.predict_ns", unit: "ns", kind: "host", better: "lower", moves: "t2t_hot_p50_us and throughput_per_s on wire-cnn only"},
	{name: "trading.on_prediction_ns", unit: "ns", kind: "host", better: "lower", moves: "t2t_hot_p50_us on wire-stub"},
	{name: "trader.route_send_ns", unit: "ns", kind: "host", better: "lower", moves: "t2t_hot_p50_us and throughput_per_s on wire-stub"},
	{name: "wire.tcp_ns", unit: "ns", kind: "host", better: "lower", moves: "t2t_hot_p50_us on wire-stub; diluted on wire-cnn"},
	// Counters read at layer boundaries of the untraced run.
	{name: "trader.allocs_per_tick", unit: "count", kind: "host", better: "lower", moves: "t2t_hot_p99_us on wire-stub (GC); includes one harness allocation per order"},
	{name: "trader.bytes_per_tick", unit: "B", kind: "host", better: "lower", moves: "t2t_hot_p99_us on wire-stub (GC)"},
	{name: "mdclient.dup_share", unit: "ratio", kind: "host", better: "lower", moves: "throughput_per_s on wire-ab-sched; 0 on the single-feed workloads"},
	{name: "mdclient.parked_share", unit: "ratio", kind: "host", better: "lower", moves: "throughput_per_s on wire-ab-sched"},
	{name: "mdclient.gaps", unit: "count", kind: "host", better: "lower", moves: "0 in a valid run"},
	{name: "serve.batch_mean", unit: "count", kind: "host", better: "higher", moves: "throughput_per_s on wire-* (batching under load)"},
	{name: "serve.late_share", unit: "ratio", kind: "host", better: "lower", moves: "0 on wire-*; modelled on replay-modelled"},
	{name: "serve.evicted_share", unit: "ratio", kind: "host", better: "lower", moves: "0 on wire-*; modelled on replay-modelled"},
	{name: "serve.deferred_share", unit: "ratio", kind: "host", better: "lower", moves: "0 on wire-*; modelled on replay-modelled"},
	{name: "serve.gov_saves", unit: "count", kind: "host", better: "lower", moves: "governor activity behind throughput_per_s on wire-ab-sched"},
	{name: "serve.gov_redistributes", unit: "count", kind: "host", better: "lower", moves: "governor activity behind throughput_per_s on wire-ab-sched"},
	// Staged: each layer's public function alone on one goroutine.
	{name: "sbe.decode_into_ns", unit: "ns", kind: "host", better: "lower", moves: "throughput_per_s on wire-stub and wire-ab-sched"},
	{name: "sbe.decode_ns", unit: "ns", kind: "host", better: "lower", moves: "serve_replay_queries_per_s (serve.Submit still uses the legacy decoder)"},
	{name: "sbe.clone_ns", unit: "ns", kind: "host", better: "lower", moves: "throughput_per_s on wire-stub"},
	{name: "sbe.allocs_per_packet", unit: "count", kind: "host", better: "lower", moves: "t2t_hot_p99_us on wire-stub"},
	{name: "mdclient.on_datagram_ns", unit: "ns", kind: "host", better: "lower", moves: "throughput_per_s on wire-ab-sched"},
	{name: "serve.submit_ns", unit: "ns", kind: "host", better: "lower", moves: "throughput_per_s on wire-stub; serve_replay_queries_per_s"},
	{name: "sched.decide_ns", unit: "ns", kind: "host", better: "lower", moves: "throughput_per_s on wire-ab-sched and replay-modelled"},
	{name: "sched.issued_share", unit: "ratio", kind: "modelled", better: "higher", moves: "must stay exact: a faster decision may not change decisions"},
	{name: "core.tick_prep_ns", unit: "ns", kind: "host", better: "lower", moves: "t2t_hot_p50_us on wire-stub"},
	{name: "offload.push_pop_ns", unit: "ns", kind: "host", better: "lower", moves: "t2t_hot_p50_us on wire-stub"},
	{name: "lob.add_cancel_ns", unit: "ns", kind: "host", better: "lower", moves: "setup_s (scenario generation)"},
	{name: "nn.flops_per_infer", unit: "count", kind: "modelled", better: "lower", moves: "nn.predict_ns on wire-cnn"},
	{name: "tensor.gemm_gflops", unit: "GFLOP/s", kind: "host", better: "higher", moves: "nn.predict_ns, so t2t_hot_p50_us on wire-cnn"},
	{name: "orderentry.append_request_ns", unit: "ns", kind: "host", better: "lower", moves: "trader.route_send_ns on wire-stub"},
	{name: "orderentry.decode_frame_ns", unit: "ns", kind: "host", better: "lower", moves: "none in the program (acks); harness cost per order"},
	{name: "signal.publish_idle_ns", unit: "ns", kind: "host", better: "lower", moves: "none today (gateway off); guards observability work"},
	{name: "signal.publish_active_ns", unit: "ns", kind: "host", better: "lower", moves: "none today (gateway off); guards observability work"},
	{name: "latency.record_ns", unit: "ns", kind: "host", better: "lower", moves: "none today; guards per-stage histograms"},
	{name: "scenario.gen_ticks_per_s", unit: "1/s", kind: "host", better: "higher", moves: "setup_s on every workload"},
	{name: "exchange.submit_ns", unit: "ns", kind: "host", better: "lower", moves: "setup_s (scenario generation)"},
	{name: "compile.configure_ms", unit: "ms", kind: "host", better: "lower", moves: "setup_s on wire-ab-sched and replay-modelled"},
	// Replay-modelled internals.
	{name: "sim.events_per_query", unit: "count", kind: "modelled", better: "lower", moves: "throughput_per_s on replay-modelled"},
	{name: "sim.probe_overhead_share", unit: "ratio", kind: "host", better: "lower", moves: "throughput_per_s on replay-modelled when a tracer is attached"},
	{name: "core.dvfs_switches", unit: "count", kind: "modelled", better: "lower", moves: "must stay exact under simulator speed-ups"},
}

func findMetric(name string) (metricDef, bool) {
	for _, lists := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range lists {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// runSeconds is the measuring time of one driver run.
const runSeconds = 56

// benchmarkFile is BENCHMARK.json, the driver's description of the
// benchmark; `perf -spec` prints it from the tables above.
type benchmarkFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []benchWorkload  `json:"workloads"`
	EndToEnd   []benchEndToEnd  `json:"end_to_end"`
	PerLayer   []benchLayerSpec `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func benchmarkSpec() benchmarkFile {
	f := benchmarkFile{Command: []string{"bash", "perf/run.sh"}, Paths: []string{"perf"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		if w.listed {
			f.Workloads = append(f.Workloads, benchWorkload{w.name, w.why})
		}
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, benchEndToEnd{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, benchLayerSpec{m.name, m.unit, m.better})
	}
	return f
}
