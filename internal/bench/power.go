package bench

// The limited-power recovery experiment: the paper's bursty workloads under
// the constrained power envelope, run through the offline simulator
// (core.System) and the online serving runtime (serve.Server) with the
// Algorithm-2 power governor on and off. The governor's saving step turns
// power-infeasible drops into issued batches by scaling other busy lanes
// down within their deadline slack; the sweep quantifies the recovered
// response rate against the drop-on-power-infeasible status quo.
// `make bench-power` archives the rows as BENCH_power.json.

import (
	"encoding/json"
	"fmt"
	"strings"

	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/scenario"
	"lighttrader/internal/serve"
	"lighttrader/internal/sim"
	"lighttrader/internal/trading"
)

// powerLanes is the accelerator/lane count of the sweep: enough that the
// limited envelope cannot hold every lane at a high operating point, so
// power-infeasible decisions actually occur.
const powerLanes = 8

// powerBudgetWatts tightens the paper's limited envelope for the sweep: at
// N=8 the nominal 20 W admits every lane idling at a mid operating point, so
// power infeasibility would never fire and there would be nothing to govern.
// The tightened budget binds as soon as a few lanes sit above the floor,
// which is exactly the regime Algorithm 2 is for.
const powerBudgetWatts = 12

// PowerRow is one (workload, engine) cell of the limited-power sweep.
type PowerRow struct {
	Workload string `json:"workload"`
	// Engine is "sim" (core.System, shared queue), "serve" (lane-sharded
	// runtime, governor on) or "serve-nogov" (governor disabled: the
	// drop-on-power-infeasible status quo).
	Engine       string  `json:"engine"`
	Submitted    int     `json:"submitted"`
	Responded    int     `json:"responded"`
	ResponseRate float64 `json:"response_rate"`
	// Per-cause miss attribution (mutually exclusive).
	Evicted          int `json:"evicted"`
	DeferredDeadline int `json:"deferred_deadline"`
	DeferredPower    int `json:"deferred_power"`
	Late             int `json:"late"`
	// Governor activity (serve engines only; the sim engine reports its own
	// save/redistribute transition counts).
	Saves         int     `json:"dvfs_saves"`
	Redistributes int     `json:"dvfs_redistributes"`
	Rescues       int     `json:"power_save_rescues"`
	MaxPowerWatts float64 `json:"max_power_watts"`
}

// powerSeconds is the power workload's length: seed 1 yields ≈ 12 000
// ticks at its tripled rate.
const powerSeconds = 8.6

// powerTAvailNanos is the sweep's tight horizon: it forces high operating
// points (low states cannot meet single-query deadlines), so un-governed
// idle draws pile up against the budget — the regime where the status quo
// drops on power and Algorithm 2 recovers.
const powerTAvailNanos = 500_000

// PowerTraffic is the sweep's canonical workload: the paper script with its
// Hawkes rates tripled, its flow spread over powerLanes instruments so
// the serving leg runs one lane per instrument.
func PowerTraffic() *scenario.Source {
	return rescript(DefaultTraffic(powerSeconds, 1), func(sc *scenario.Script) {
		sc.Instruments = sc.Instruments[:0]
		for s := 0; s < powerLanes; s++ {
			sc.Instruments = append(sc.Instruments, scenario.Instrument{
				SecurityID: int32(s + 1), Symbol: fmt.Sprintf("PWR%d", s), MidPrice: 450000, DepthPerLevel: 50,
			})
		}
		for i := range sc.Phases {
			for k := range sc.Phases[i].Arrivals.Hawkes {
				sc.Phases[i].Arrivals.Hawkes[k].Mu *= 3
			}
		}
	})
}

// powerSystemConfig is the sweep's system: DeepLOB latency tables across
// powerLanes accelerators under the tightened limited envelope, WS+DS.
func powerSystemConfig() core.SystemConfig {
	cfg, err := core.Configure(nn.NewDeepLOB(), powerLanes, core.Limited, core.Options{
		WorkloadScheduling: true, DVFSScheduling: true,
	})
	if err != nil {
		panic(err) // static config; cannot fail
	}
	cfg.Sched.PowerBudgetWatts = powerBudgetWatts
	return cfg
}

// sourceMulti subscribes a source's instruments with small identically-
// seeded models: the pipelines' wall-clock cost is irrelevant (admission
// and completion run on modelled time), they only have to be real.
func sourceMulti(src *scenario.Source) *core.MultiPipeline {
	mp := core.NewMultiPipeline()
	for _, ins := range src.Script().Instruments {
		if err := mp.Add(ins.Symbol, ins.SecurityID,
			nn.NewSizedCNN(ins.Symbol, 8, 0), offload.Normalizer{},
			trading.DefaultConfig(ins.SecurityID)); err != nil {
			panic(err) // static subscription set; cannot fail
		}
	}
	return mp
}

// runSimPower runs one workload through the instrumented simulator.
func runSimPower(name string, src *scenario.Source) PowerRow {
	cfg := powerSystemConfig()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	tr := sim.NewTracer()
	m := sim.RunWithOptions(src.Queries(powerTAvailNanos), sys, sim.WithProbe(tr))
	attr := tr.Attribution()
	return PowerRow{
		Workload: name, Engine: "sim",
		Submitted: m.Total, Responded: m.Responded, ResponseRate: m.ResponseRate,
		Evicted: attr.Evicted, DeferredDeadline: attr.DeferredDeadline,
		DeferredPower: attr.DeferredPower, Late: m.Late,
		Saves:         tr.DVFSTransitions(sim.DVFSSave),
		Redistributes: tr.DVFSTransitions(sim.DVFSRedistribute),
		MaxPowerWatts: sys.MaxObservedPowerWatts(),
	}
}

// runServePower replays one workload's packets, at the arrivals the
// simulator leg reads, through the serving runtime in deterministic
// multi-lane inline replay (modelled clock, one lane per instrument), with
// the power governor on or off.
func runServePower(name string, src *scenario.Source, governor bool) PowerRow {
	cfg := powerSystemConfig()
	srv, err := serve.New(sourceMulti(src), serve.Config{
		Lanes:                powerLanes,
		ModelledClock:        true,
		MaxQueue:             64,
		Sched:                &cfg.Sched,
		TAvailNanos:          powerTAvailNanos,
		PrePipelineNanos:     cfg.PrePipelineNanos,
		DisablePowerGovernor: !governor,
	})
	if err != nil {
		panic(err)
	}
	for _, tk := range src.Ticks() {
		if err := srv.Submit(tk.TimeNanos, tk.Packet); err != nil {
			panic(err) // engine-generated packets always parse
		}
	}
	srv.Drain()
	st := srv.Stats()
	engine := "serve"
	if !governor {
		engine = "serve-nogov"
	}
	return PowerRow{
		Workload: name, Engine: engine,
		Submitted: st.Submitted, Responded: st.Served, ResponseRate: st.ResponseRate,
		Evicted: st.EvictedQueueFull, DeferredDeadline: st.DeferredDeadline,
		DeferredPower: st.DeferredPower, Late: st.Late,
		Saves: st.DVFSSaves, Redistributes: st.DVFSRedistributes,
		Rescues: st.PowerSaveRescues, MaxPowerWatts: st.MaxPowerWatts,
	}
}

// PowerSweep runs src's three traffic regimes (the sched matrix's calm,
// bursty and flash) through all three engines.
func PowerSweep(src *scenario.Source) []PowerRow {
	var rows []PowerRow
	for _, w := range schedWorkloads(src) {
		rows = append(rows, runSimPower(w.Name, w.Src))
		rows = append(rows, runServePower(w.Name, w.Src, false))
		rows = append(rows, runServePower(w.Name, w.Src, true))
	}
	return rows
}

// RenderPowerSweep renders the recovery table.
func RenderPowerSweep(rows []PowerRow) string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Limited-power recovery (DeepLOB, N=%d, %.0f W budget, WS+DS)",
		powerLanes, float64(powerBudgetWatts)))
	fmt.Fprintf(&b, "%-8s %-12s %14s %8s %9s %9s %6s %7s %8s %8s\n",
		"workload", "engine", "response rate", "evicted", "def-ddl", "def-power",
		"late", "saves", "rescues", "max W")
	last := ""
	for _, r := range rows {
		if last != "" && r.Workload != last {
			b.WriteString("\n")
		}
		last = r.Workload
		fmt.Fprintf(&b, "%-8s %-12s %14s %8d %9d %9d %6d %7d %8d %8.2f\n",
			r.Workload, r.Engine, pct(r.ResponseRate), r.Evicted, r.DeferredDeadline,
			r.DeferredPower, r.Late, r.Saves, r.Rescues, r.MaxPowerWatts)
	}
	b.WriteString("\nsim is the shared-queue simulator; serve shards queries one lane per\n")
	b.WriteString("instrument. serve-nogov drops every power-infeasible decision (the\n")
	b.WriteString("status quo); serve retries it after Algorithm 2's saving step scales\n")
	b.WriteString("other busy lanes down within their deadline slack.\n")
	return b.String()
}

// PowerReport is the archived form of the sweep (BENCH_power.json).
type PowerReport struct {
	Model       string     `json:"model"`
	Lanes       int        `json:"lanes"`
	Power       string     `json:"power"`
	BudgetWatts float64    `json:"budget_watts"`
	Ticks       int        `json:"ticks"`
	TAvailNanos int64      `json:"t_avail_nanos"`
	Seed        int64      `json:"seed"`
	Rows        []PowerRow `json:"rows"`
}

// PowerSweepJSON marshals the sweep with its generating parameters.
func PowerSweepJSON(src *scenario.Source, rows []PowerRow) ([]byte, error) {
	rep := PowerReport{
		Model: "DeepLOB", Lanes: powerLanes, Power: core.Limited.Name,
		BudgetWatts: powerBudgetWatts,
		Ticks:       len(src.Ticks()), TAvailNanos: powerTAvailNanos, Seed: src.Seed(),
		Rows: rows,
	}
	return json.MarshalIndent(rep, "", "  ")
}
