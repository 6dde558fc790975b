package serve

import (
	"testing"

	"lighttrader/internal/scenario"
)

// TestServeScenarioStreamAcrossLanes drives the correlated multi-symbol
// shock scenario — three instruments gapping together — through real
// concurrent worker lanes and requires quiesce-state parity with the serial
// reference on the identical byte stream. Run under `go test -race`
// (make ci does) this is the scenario-driven race gate for the serving
// runtime: every packet of a registry scenario crosses the lane handoff,
// the per-lane books, and the order sink concurrently.
func TestServeScenarioStreamAcrossLanes(t *testing.T) {
	src, err := scenario.ByName("multi-shock", 9)
	if err != nil {
		t.Fatal(err)
	}
	syms := make([]string, len(src.Script().Instruments))
	for i, ins := range src.Script().Instruments {
		// buildMulti assigns security ids 1..n in symbol order, matching the
		// registry's instrument numbering.
		if ins.SecurityID != int32(i+1) {
			t.Fatalf("instrument %s has id %d; serve harness expects %d", ins.Symbol, ins.SecurityID, i+1)
		}
		syms[i] = ins.Symbol
	}
	packets := src.Packets()

	wantOrders, wantBooks, wantInfs := serialRun(t, buildMulti(t, syms), packets)
	var total int
	for _, reqs := range wantOrders {
		total += len(reqs)
	}
	if total == 0 {
		t.Fatal("scenario generated no orders through the serial baseline; parity would be vacuous")
	}

	srv, log := runServer(t, buildMulti(t, syms), packets, Config{Lanes: len(syms), MaxQueue: len(packets) + 1})
	st := srv.Stats()
	if st.Submitted != len(packets) {
		t.Fatalf("Submitted = %d, want %d", st.Submitted, len(packets))
	}
	if st.Served != st.Submitted || st.Dropped() != 0 {
		t.Fatalf("not every scenario query served: %+v", st)
	}
	for i := range syms {
		sec := int32(i + 1)
		got, ok := srv.Snapshot(sec, 0)
		if !ok {
			t.Fatalf("no snapshot for security %d", sec)
		}
		want := wantBooks[sec]
		if got.Bids != want.Bids || got.Asks != want.Asks {
			t.Fatalf("security %d book diverged from serial:\nserial %+v\nserve  %+v", sec, want, got)
		}
		if n := srv.Inferences(sec); n != wantInfs[sec] {
			t.Fatalf("security %d inferences = %d, serial ran %d", sec, n, wantInfs[sec])
		}
		if len(log.Orders(sec)) != len(wantOrders[sec]) {
			t.Fatalf("security %d orders = %d, serial generated %d",
				sec, len(log.Orders(sec)), len(wantOrders[sec]))
		}
	}
}
