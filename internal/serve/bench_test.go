package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/trading"
)

// benchMulti builds the benchmark subscription set without the testing.T
// plumbing of buildMulti.
func benchMulti(b *testing.B, syms []string) *core.MultiPipeline {
	b.Helper()
	mp := core.NewMultiPipeline()
	for i, sym := range syms {
		sec := int32(i + 1)
		tcfg := trading.DefaultConfig(sec)
		tcfg.MinConfidence = 0
		if err := mp.Add(sym, sec, nn.NewSizedCNN("tiny-"+sym, 8, 0),
			offload.Normalizer{}, tcfg); err != nil {
			b.Fatal(err)
		}
	}
	return mp
}

// BenchmarkServingThroughput replays the same 8-instrument feed through the
// serial reference and the runtime at increasing lane counts. One
// iteration processes the full trace, so ns/op is the wall-clock cost of the
// replay and the serial/lanes=N ratio is the serving speedup.
func BenchmarkServingThroughput(b *testing.B) {
	syms := []string{"ESU6", "NQU6", "YMU6", "RTYU6", "CLU6", "GCU6", "SIU6", "HGU6"}
	var packets [][]byte
	func() { // reuse the test-side market builder via a throwaway T
		t := &testing.T{}
		packets = buildMarket(t, syms, nn.Window+150)
		if t.Failed() {
			b.Fatal("market construction failed")
		}
	}()
	b.Logf("%d packets over %d instruments", len(packets), len(syms))

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			pipes := benchMulti(b, syms).Pipelines()
			b.StartTimer()
			for _, buf := range packets {
				if _, err := serialDispatch(pipes, buf); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(packets)*b.N)/b.Elapsed().Seconds(), "packets/s")
	})
	for _, lanes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				srv, err := New(benchMulti(b, syms), Config{Lanes: lanes, MaxQueue: len(packets) + 1})
				if err != nil {
					b.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					srv.Run(ctx)
				}()
				b.StartTimer()
				for j, buf := range packets {
					if err := srv.Submit(int64(j), buf); err != nil {
						b.Fatal(err)
					}
				}
				srv.Drain()
				b.StopTimer()
				cancel()
				wg.Wait()
				if st := srv.Stats(); st.Served != len(packets) {
					b.Fatalf("served %d of %d", st.Served, len(packets))
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(len(packets)*b.N)/b.Elapsed().Seconds(), "packets/s")
		})
	}
}
