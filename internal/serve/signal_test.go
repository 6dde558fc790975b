package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"lighttrader/internal/signal"
	"lighttrader/internal/testutil"
)

// TestSignalGatewayStats is the publish-hook counter regression test: with
// a gateway attached, New registers exactly the served symbols,
// Server.Stats() folds in the signal counters, they stay monotonic under
// concurrent Stats() readers while lanes publish (race-clean under -race),
// and a sleeping in-process subscriber holds exactly the newest signal.
func TestSignalGatewayStats(t *testing.T) {
	leak := testutil.StartLeakCheck()
	syms := []string{"ESU6", "NQU6"}
	packets := buildMarket(t, syms, 300)

	gw, err := signal.NewGateway(signal.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	log := NewOrderLog()
	srv, err := New(buildMulti(t, syms), Config{Lanes: 2, MaxQueue: len(packets) + 1, OnOrders: log.Sink(), Signals: gw})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := gw.Subscribe("ESU6")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := gw.Subscribe("NOPE"); err == nil {
		t.Fatal("Subscribe to an unserved symbol succeeded")
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := srv.Run(ctx); err != context.Canceled {
			t.Errorf("Run = %v, want context.Canceled", err)
		}
	}()

	// Concurrent Stats() readers assert the published/drop counters never
	// move backwards while the lanes are live.
	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastPub, lastDrops uint64
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				st := srv.Stats()
				if st.SignalsPublished < lastPub {
					t.Errorf("SignalsPublished regressed %d -> %d", lastPub, st.SignalsPublished)
					return
				}
				if st.SignalDrops < lastDrops {
					t.Errorf("SignalDrops regressed %d -> %d", lastDrops, st.SignalDrops)
					return
				}
				lastPub, lastDrops = st.SignalsPublished, st.SignalDrops
			}
		}()
	}

	for i, buf := range packets {
		if err := srv.Submit(int64(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	srv.Drain()
	gw.Drain()
	close(stopReaders)
	readers.Wait()
	cancel()
	wg.Wait()

	st := srv.Stats()
	if st.SignalsPublished == 0 {
		t.Fatal("lanes published no signals")
	}
	if st.SignalSubscribers != 1 {
		t.Fatalf("SignalSubscribers = %d, want 1", st.SignalSubscribers)
	}
	gs := gw.Stats()
	if st.SignalsPublished != gs.Published || st.SignalsDelivered != gs.Delivered || st.SignalDrops != gs.ConflationDrops {
		t.Fatalf("Server.Stats() diverges from gateway: %+v vs %+v", st, gs)
	}

	// The conflated stream: exactly the newest ESU6 signal remains
	// buffered, under the identity New registered; everything the sleeping
	// consumer missed is in Drops().
	var got signal.TradeSignal
	select {
	case got = <-sub.C():
	default:
		t.Fatal("no signal buffered for the in-process subscriber")
	}
	if got.Symbol != "ESU6" || got.SecurityID != 1 || got.Seq == 0 {
		t.Fatalf("unexpected buffered signal %+v", got)
	}
	per := gw.SymbolStats()
	if len(per) != 2 || per[0].Symbol != "ESU6" || per[1].Symbol != "NQU6" {
		t.Fatalf("per-symbol stats %+v", per)
	}
	if got.Seq != per[0].Published {
		t.Fatalf("buffered Seq %d != ESU6 published %d (latest-value-wins broken)", got.Seq, per[0].Published)
	}
	if drops := sub.Drops(); drops != per[0].Published-1 || per[0].Subscribers != 1 || per[0].ConflationDrops != drops {
		t.Fatalf("subscriber drops = %d, want %d (ESU6 stats %+v)", drops, per[0].Published-1, per[0])
	}

	sub.Close()
	gw.Close()
	leak.Verify(t, 5*time.Second)
}
