package bench

import (
	"fmt"
	"strings"

	"lighttrader/internal/baseline"
	"lighttrader/internal/c2c"
	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/scenario"
	"lighttrader/internal/sim"
)

// fpgaHubWatts is the FPGA-and-peripherals share of the LightTrader card
// power, added to the accelerator draw for system-level efficiency.
const fpgaHubWatts = 20.0

// Fig8Row is one model of the Fig. 8 complexity ladder.
type Fig8Row struct {
	Model        string
	LatencyNanos int64
	ResponseRate float64
}

// Fig8 measures the response rate of a single accelerator across the
// M1…M5 complexity ladder: response falls as inference latency rises.
func Fig8(src *scenario.Source, tAvailNanos int64) []Fig8Row {
	qs := src.Queries(tAvailNanos)
	var rows []Fig8Row
	for _, m := range nn.ComplexityLadder() {
		metrics, cfg := runLT(qs, m, 1, core.Sufficient, core.Options{})
		rows = append(rows, Fig8Row{
			Model:        m.Name(),
			LatencyNanos: cfg.TickToTradeNanos(),
			ResponseRate: metrics.ResponseRate,
		})
	}
	return rows
}

// RenderFig8 renders Fig. 8.
func RenderFig8(rows []Fig8Row) string {
	var b strings.Builder
	header(&b, "Fig. 8: Response rate vs model complexity (single accelerator)")
	fmt.Fprintf(&b, "%-6s %14s %14s\n", "Model", "Latency (µs)", "Response rate")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %14.1f %14s\n", r.Model, float64(r.LatencyNanos)/1000, pct(r.ResponseRate))
	}
	return b.String()
}

// Fig9Row is one transfer size of the C2C comparison.
type Fig9Row struct {
	TransferBytes int64
	CustomNanos   int64
	IlkNanos      int64
}

// Fig9Result carries the headline bandwidth ratio plus a size sweep.
type Fig9Result struct {
	CustomGoodputGbps float64
	IlkGoodputGbps    float64
	Ratio             float64
	Sweep             []Fig9Row
}

// Fig9 compares the custom C2C interface against the Interlaken reference.
func Fig9() Fig9Result {
	cu, il := c2c.CustomC2C(), c2c.Interlaken()
	res := Fig9Result{
		CustomGoodputGbps: cu.GoodputBps() * 8 / 1e9,
		IlkGoodputGbps:    il.GoodputBps() * 8 / 1e9,
		Ratio:             c2c.BandwidthRatio(cu, il),
	}
	for _, n := range []int64{64, 512, 4 << 10, 8 << 10, 64 << 10, 1 << 20} {
		res.Sweep = append(res.Sweep, Fig9Row{
			TransferBytes: n,
			CustomNanos:   cu.TransferNanos(n),
			IlkNanos:      il.TransferNanos(n),
		})
	}
	return res
}

// RenderFig9 renders Fig. 9's bandwidth comparison.
func RenderFig9(r Fig9Result) string {
	var b strings.Builder
	header(&b, "Fig. 9: C2C interface vs Interlaken")
	fmt.Fprintf(&b, "Effective bandwidth: custom %.1f Gb/s, Interlaken %.1f Gb/s → %.2fx (paper: 2.4x)\n",
		r.CustomGoodputGbps, r.IlkGoodputGbps, r.Ratio)
	fmt.Fprintf(&b, "%12s %14s %16s\n", "Bytes", "Custom (ns)", "Interlaken (ns)")
	for _, row := range r.Sweep {
		fmt.Fprintf(&b, "%12d %14d %16d\n", row.TransferBytes, row.CustomNanos, row.IlkNanos)
	}
	return b.String()
}

// Fig11Row is one benchmark model of the non-batching comparison.
type Fig11Row struct {
	Model string
	// Latency (ns), batch 1, single accelerator, sufficient power.
	LTNanos, GPUNanos, FPGANanos int64
	// Response rate under the paper workload (DefaultTraffic).
	LTResp, GPUResp, FPGAResp float64
	// Effective GFLOPS/W at the system level.
	LTEff, GPUEff, FPGAEff float64
}

// Fig11 runs the non-batching comparison of LightTrader against the
// GPU-based and FPGA-based systems (latency, response rate, efficiency).
func Fig11(src *scenario.Source, tAvailNanos int64) []Fig11Row {
	qs := src.Queries(tAvailNanos)
	var rows []Fig11Row
	for _, m := range nn.BenchmarkModels() {
		ltMetrics, cfg := runLT(qs, m, 1, core.Sufficient, core.Options{})
		ltNanos := cfg.TickToTradeNanos()
		ltPower := cfg.Sched.BusyPower(cfg.Sched.StaticDVFS) + fpgaHubWatts

		gpu := baseline.NewGPU(m)
		fpga := baseline.NewFPGA(m)
		gpuMetrics := sim.Run(qs, gpu)
		fpgaMetrics := sim.Run(qs, fpga)

		eff := func(nanos int64, watts float64) float64 {
			return float64(m.TotalFLOPs()) / (float64(nanos) / 1e9) / watts / 1e9
		}
		rows = append(rows, Fig11Row{
			Model:     m.Name(),
			LTNanos:   ltNanos,
			GPUNanos:  gpu.Profile().ServiceNanos,
			FPGANanos: fpga.Profile().ServiceNanos,
			LTResp:    ltMetrics.ResponseRate,
			GPUResp:   gpuMetrics.ResponseRate,
			FPGAResp:  fpgaMetrics.ResponseRate,
			LTEff:     eff(ltNanos, ltPower),
			GPUEff:    eff(gpu.Profile().ServiceNanos, gpu.Profile().BusyWatts),
			FPGAEff:   eff(fpga.Profile().ServiceNanos, fpga.Profile().BusyWatts),
		})
	}
	return rows
}

// RenderFig11 renders Fig. 11 (a) latency, (b) response rate, (c)
// efficiency normalised to the GPU-based system.
func RenderFig11(rows []Fig11Row) string {
	var b strings.Builder
	header(&b, "Fig. 11: Non-batching performance (single accelerator, sufficient power)")
	fmt.Fprintf(&b, "(a) inference latency (µs)            (b) response rate              (c) eff. GFLOPS/W (vs GPU)\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %8s | %7s %7s %7s | %8s %8s %8s\n",
		"Model", "LT", "GPU", "FPGA", "LT", "GPU", "FPGA", "LT", "GPU", "FPGA")
	var gpuSpeed, fpgaSpeed, gpuEffR, fpgaEffR float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8.1f %8.1f %8.1f | %7s %7s %7s | %8.1fx %8.1fx %8.1fx\n",
			r.Model,
			float64(r.LTNanos)/1000, float64(r.GPUNanos)/1000, float64(r.FPGANanos)/1000,
			pct(r.LTResp), pct(r.GPUResp), pct(r.FPGAResp),
			r.LTEff/r.GPUEff, 1.0, r.FPGAEff/r.GPUEff)
		gpuSpeed += float64(r.GPUNanos) / float64(r.LTNanos)
		fpgaSpeed += float64(r.FPGANanos) / float64(r.LTNanos)
		gpuEffR += r.LTEff / r.GPUEff
		fpgaEffR += r.LTEff / r.FPGAEff
	}
	n := float64(len(rows))
	fmt.Fprintf(&b, "Average speed-up vs GPU %.2fx (paper 13.92x), vs FPGA %.2fx (paper 7.28x)\n",
		gpuSpeed/n, fpgaSpeed/n)
	fmt.Fprintf(&b, "Average efficiency vs GPU %.1fx (paper 23.6x), vs FPGA %.1fx (paper 11.6x)\n",
		gpuEffR/n, fpgaEffR/n)
	return b.String()
}

// Fig12Row is one (model, condition, N) point of the accelerator-count
// sweep.
type Fig12Row struct {
	Model        string
	Condition    string
	NumAccels    int
	FreqGHz      float64
	ResponseRate float64
}

// Fig12 sweeps the accelerator count under both power conditions with the
// conservative static clocking of Table III (no scheduling).
func Fig12(src *scenario.Source, tAvailNanos int64) []Fig12Row {
	qs := src.Queries(tAvailNanos)
	var rows []Fig12Row
	for _, m := range nn.BenchmarkModels() {
		for _, pc := range []core.PowerCondition{core.Sufficient, core.Limited} {
			for _, n := range []int{1, 2, 4, 8, 16} {
				metrics, cfg := runLT(qs, m, n, pc, core.Options{})
				rows = append(rows, Fig12Row{
					Model:        m.Name(),
					Condition:    pc.Name,
					NumAccels:    n,
					FreqGHz:      cfg.Sched.StaticDVFS.FreqGHz,
					ResponseRate: metrics.ResponseRate,
				})
			}
		}
	}
	return rows
}

// RenderFig12 renders Fig. 12.
func RenderFig12(rows []Fig12Row) string {
	var b strings.Builder
	header(&b, "Fig. 12: Response rate vs number of AI accelerators")
	fmt.Fprintf(&b, "%-12s %-11s %4s %6s %14s\n", "Model", "Condition", "N", "GHz", "Response rate")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-11s %4d %6.1f %14s\n",
			r.Model, r.Condition, r.NumAccels, r.FreqGHz, pct(r.ResponseRate))
	}
	return b.String()
}

// SchedulerModes are the four Fig. 13 configurations.
var SchedulerModes = []struct {
	Name string
	Opts core.Options
}{
	{"baseline", core.Options{}},
	{"WS", core.Options{WorkloadScheduling: true}},
	{"DS", core.Options{DVFSScheduling: true}},
	{"WS+DS", core.Options{WorkloadScheduling: true, DVFSScheduling: true}},
}

// Fig13Row is one (model, condition, N) point with all scheduler modes.
type Fig13Row struct {
	Model     string
	Condition string
	NumAccels int
	// MissRate maps scheduler mode → miss rate.
	MissRate map[string]float64
}

// Fig13 evaluates the scheduling algorithms across the full matrix.
func Fig13(src *scenario.Source, tAvailNanos int64) []Fig13Row {
	qs := src.Queries(tAvailNanos)
	var rows []Fig13Row
	for _, m := range nn.BenchmarkModels() {
		for _, pc := range []core.PowerCondition{core.Sufficient, core.Limited} {
			for _, n := range []int{1, 2, 4, 8, 16} {
				row := Fig13Row{Model: m.Name(), Condition: pc.Name, NumAccels: n,
					MissRate: map[string]float64{}}
				for _, mode := range SchedulerModes {
					metrics, _ := runLT(qs, m, n, pc, mode.Opts)
					row.MissRate[mode.Name] = metrics.MissRate
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// RenderFig13 renders Fig. 13 with the paper's summary reductions.
func RenderFig13(rows []Fig13Row) string {
	var b strings.Builder
	header(&b, "Fig. 13: Miss rate with workload (WS) and DVFS (DS) scheduling")
	fmt.Fprintf(&b, "%-12s %-11s %4s %10s %10s %10s %10s\n",
		"Model", "Condition", "N", "baseline", "WS", "DS", "WS+DS")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-11s %4d %10s %10s %10s %10s\n",
			r.Model, r.Condition, r.NumAccels,
			pct(r.MissRate["baseline"]), pct(r.MissRate["WS"]),
			pct(r.MissRate["DS"]), pct(r.MissRate["WS+DS"]))
	}
	b.WriteString("\n")
	b.WriteString(RenderFig13Summary(rows))
	return b.String()
}

// Fig13Summary aggregates the relative miss-rate reductions the paper
// headlines: WS over small N (1,2,4), DS over large N (8,16), WS+DS over
// all N, averaged per model across power conditions.
type Fig13Summary struct {
	Model                        string
	WSSmallN, DSLargeN, BothAllN float64 // relative miss-rate reduction
}

// SummarizeFig13 computes the paper's headline aggregates.
func SummarizeFig13(rows []Fig13Row) []Fig13Summary {
	models := []string{"VanillaCNN", "TransLOB", "DeepLOB"}
	var out []Fig13Summary
	for _, model := range models {
		var s Fig13Summary
		s.Model = model
		var wsSum, dsSum, bothSum float64
		var wsN, dsN, bothN int
		for _, r := range rows {
			if r.Model != model {
				continue
			}
			base := r.MissRate["baseline"]
			if base <= 0 {
				continue
			}
			rel := func(mode string) float64 { return (base - r.MissRate[mode]) / base }
			if r.NumAccels <= 4 {
				wsSum += rel("WS")
				wsN++
			} else {
				dsSum += rel("DS")
				dsN++
			}
			bothSum += rel("WS+DS")
			bothN++
		}
		if wsN > 0 {
			s.WSSmallN = wsSum / float64(wsN)
		}
		if dsN > 0 {
			s.DSLargeN = dsSum / float64(dsN)
		}
		if bothN > 0 {
			s.BothAllN = bothSum / float64(bothN)
		}
		out = append(out, s)
	}
	return out
}

// RenderFig13Summary renders the headline reductions with paper values.
func RenderFig13Summary(rows []Fig13Row) string {
	paper := map[string][3]float64{
		"VanillaCNN": {21.4, 19.6, 25.1},
		"TransLOB":   {18.4, 23.1, 23.7},
		"DeepLOB":    {17.6, 17.1, 20.7},
	}
	var b strings.Builder
	b.WriteString("Average relative miss-rate reduction (measured / paper):\n")
	fmt.Fprintf(&b, "%-12s %20s %20s %20s\n", "Model", "WS (N≤4)", "DS (N≥8)", "WS+DS (all N)")
	for _, s := range SummarizeFig13(rows) {
		p := paper[s.Model]
		fmt.Fprintf(&b, "%-12s %12.1f%%/%4.1f%% %12.1f%%/%4.1f%% %12.1f%%/%4.1f%%\n",
			s.Model, 100*s.WSSmallN, p[0], 100*s.DSLargeN, p[1], 100*s.BothAllN, p[2])
	}
	return b.String()
}
