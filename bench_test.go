package lighttrader

// Repository-level benchmarks: one per paper table and figure. Each bench
// regenerates its experiment through the same code paths as cmd/ltbench, so
// `go test -bench=. -benchmem` reproduces the full evaluation; the rendered
// tables are logged once per benchmark. Custom metrics expose the headline
// quantities (speed-ups, response rates, bandwidth ratio) so regressions in
// paper-shape show up as metric drift, not just time drift.

import (
	"sync"
	"testing"

	"lighttrader/internal/bench"
	"lighttrader/internal/scenario"
)

// benchTraffic is the shared experiment workload: ≈ 20 000 ticks of the
// paper script at the 20 ms horizon, its stream memoised by the Source.
var (
	benchTrafficOnce sync.Once
	benchTrafficSrc  *scenario.Source
)

func benchTraffic() (*scenario.Source, int64) {
	benchTrafficOnce.Do(func() {
		benchTrafficSrc = bench.DefaultTraffic(38, 1)
		benchTrafficSrc.Ticks() // pre-generate outside timed sections
	})
	return benchTrafficSrc, 20_000_000
}

func BenchmarkTableI(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.RenderTableI()
	}
	logOnce(b, out)
	r := bench.TableIData()
	b.ReportMetric(r.PeakTFLOPS, "peak-TFLOPS")
	b.ReportMetric(r.PeakTOPS, "peak-TOPS")
}

func BenchmarkTableII(b *testing.B) {
	var rows []bench.TableIIRow
	for i := 0; i < b.N; i++ {
		rows = bench.TableIIData()
	}
	logOnce(b, bench.RenderTableII())
	b.ReportMetric(float64(rows[2].FLOPs)/float64(rows[0].FLOPs), "deeplob/cnn-flops")
}

func BenchmarkTableIII(b *testing.B) {
	var rows []bench.TableIIIRow
	for i := 0; i < b.N; i++ {
		rows = bench.TableIIIData()
	}
	logOnce(b, bench.RenderTableIII())
	b.ReportMetric(rows[len(rows)-1].FreqGHz["DeepLOB"], "limited-n16-GHz")
}

func BenchmarkFig8(b *testing.B) {
	src, tAvail := benchTraffic()
	var rows []bench.Fig8Row
	for i := 0; i < b.N; i++ {
		rows = bench.Fig8(src, tAvail)
	}
	logOnce(b, bench.RenderFig8(rows))
	b.ReportMetric(rows[0].ResponseRate-rows[4].ResponseRate, "m1-m5-response-gap")
}

func BenchmarkFig9(b *testing.B) {
	var r bench.Fig9Result
	for i := 0; i < b.N; i++ {
		r = bench.Fig9()
	}
	logOnce(b, bench.RenderFig9(r))
	b.ReportMetric(r.Ratio, "c2c/interlaken-bw")
}

func BenchmarkFig11(b *testing.B) {
	src, tAvail := benchTraffic()
	var rows []bench.Fig11Row
	for i := 0; i < b.N; i++ {
		rows = bench.Fig11(src, tAvail)
	}
	logOnce(b, bench.RenderFig11(rows))
	var gpu, fpga float64
	for _, r := range rows {
		gpu += float64(r.GPUNanos) / float64(r.LTNanos)
		fpga += float64(r.FPGANanos) / float64(r.LTNanos)
	}
	b.ReportMetric(gpu/3, "speedup-vs-gpu")
	b.ReportMetric(fpga/3, "speedup-vs-fpga")
}

func BenchmarkFig12(b *testing.B) {
	src, tAvail := benchTraffic()
	var rows []bench.Fig12Row
	for i := 0; i < b.N; i++ {
		rows = bench.Fig12(src, tAvail)
	}
	logOnce(b, bench.RenderFig12(rows))
	for _, r := range rows {
		if r.Model == "DeepLOB" && r.Condition == "sufficient" && r.NumAccels == 8 {
			b.ReportMetric(100*r.ResponseRate, "deeplob-n8-resp-%")
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	src, tAvail := benchTraffic()
	var rows []bench.Fig13Row
	for i := 0; i < b.N; i++ {
		rows = bench.Fig13(src, tAvail)
	}
	logOnce(b, bench.RenderFig13(rows))
	s := bench.SummarizeFig13(rows)
	b.ReportMetric(100*s[0].WSSmallN, "cnn-ws-reduction-%")
	b.ReportMetric(100*s[2].BothAllN, "deeplob-wsds-reduction-%")
}

// logOnce emits the rendered experiment table a single time per bench.
var logged sync.Map

func logOnce(b *testing.B, out string) {
	if _, dup := logged.LoadOrStore(b.Name(), true); !dup {
		b.Log("\n" + out)
	}
}
