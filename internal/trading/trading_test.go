package trading

import (
	"testing"

	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
	"lighttrader/internal/nn"
)

func snap() lob.Snapshot {
	var s lob.Snapshot
	s.Bids[0] = lob.Level{Price: 100, Qty: 5}
	s.Asks[0] = lob.Level{Price: 102, Qty: 5}
	return s
}

func engine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestUpSignalBuysAtAsk(t *testing.T) {
	e := engine(t)
	req, ok := e.OnPrediction(nn.Up, 0.9, snap())
	if !ok {
		t.Fatal("signal suppressed")
	}
	if req.Side != lob.Bid || req.Price != 102 || req.Kind != exchange.ReqNew {
		t.Fatalf("request = %+v", req)
	}
	if e.Orders() != 1 {
		t.Fatalf("orders = %d", e.Orders())
	}
}

func TestDownSignalSellsAtBid(t *testing.T) {
	e := engine(t)
	req, ok := e.OnPrediction(nn.Down, 0.9, snap())
	if !ok {
		t.Fatal("signal suppressed")
	}
	if req.Side != lob.Ask || req.Price != 100 {
		t.Fatalf("request = %+v", req)
	}
}

func TestStationarySuppressed(t *testing.T) {
	e := engine(t)
	if _, ok := e.OnPrediction(nn.Stationary, 0.99, snap()); ok {
		t.Fatal("stationary signal acted on")
	}
	if len(e.Decisions()) != 1 || e.Decisions()[0].Suppressed != "stationary" {
		t.Fatalf("decisions = %+v", e.Decisions())
	}
}

func TestLowConfidenceSuppressed(t *testing.T) {
	e := engine(t)
	if _, ok := e.OnPrediction(nn.Up, 0.2, snap()); ok {
		t.Fatal("low confidence acted on")
	}
}

func TestPositionLimitLong(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.MaxPosition = 2
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two orders fit the limit; the third must be suppressed even while
	// the first two are merely resting (open exposure counts).
	for i := 0; i < 2; i++ {
		if _, ok := e.OnPrediction(nn.Up, 0.9, snap()); !ok {
			t.Fatalf("order %d suppressed", i)
		}
	}
	if _, ok := e.OnPrediction(nn.Up, 0.9, snap()); ok {
		t.Fatal("position limit not enforced on open exposure")
	}
}

func TestPositionTracksFills(t *testing.T) {
	e := engine(t)
	req, _ := e.OnPrediction(nn.Up, 0.9, snap())
	e.OnExec(exchange.ExecReport{Exec: exchange.ExecFilled, ClOrdID: req.ClOrdID, Side: lob.Bid, Qty: 1})
	if e.Position() != 1 {
		t.Fatalf("position = %d", e.Position())
	}
	req, _ = e.OnPrediction(nn.Down, 0.9, snap())
	e.OnExec(exchange.ExecReport{Exec: exchange.ExecFilled, ClOrdID: req.ClOrdID, Side: lob.Ask, Qty: 1})
	if e.Position() != 0 {
		t.Fatalf("position = %d after round trip", e.Position())
	}
}

func TestCancelReleasesExposure(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.MaxPosition = 1
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := e.OnPrediction(nn.Up, 0.9, snap())
	if _, ok := e.OnPrediction(nn.Up, 0.9, snap()); ok {
		t.Fatal("limit not enforced")
	}
	e.OnExec(exchange.ExecReport{Exec: exchange.ExecCanceled, ClOrdID: req.ClOrdID, Side: lob.Bid, Qty: 1})
	if _, ok := e.OnPrediction(nn.Up, 0.9, snap()); !ok {
		t.Fatal("cancel did not release exposure")
	}
}

func TestEmptyTouchSuppressed(t *testing.T) {
	e := engine(t)
	var s lob.Snapshot // empty book
	if _, ok := e.OnPrediction(nn.Up, 0.9, s); ok {
		t.Fatal("order against empty book")
	}
}

func TestShortPositionLimit(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.MaxPosition = 1
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req, ok := e.OnPrediction(nn.Down, 0.9, snap())
	if !ok {
		t.Fatal("first short suppressed")
	}
	e.OnExec(exchange.ExecReport{Exec: exchange.ExecFilled, ClOrdID: req.ClOrdID, Side: lob.Ask, Qty: 1})
	if e.Position() != -1 {
		t.Fatalf("position = %d", e.Position())
	}
	if _, ok := e.OnPrediction(nn.Down, 0.9, snap()); ok {
		t.Fatal("short limit not enforced")
	}
	// Going long from short is allowed.
	if _, ok := e.OnPrediction(nn.Up, 0.9, snap()); !ok {
		t.Fatal("covering buy suppressed")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewEngine(Config{OrderQty: 0, MaxPosition: 1}); err == nil {
		t.Fatal("zero qty accepted")
	}
	if _, err := NewEngine(Config{OrderQty: 1, MaxPosition: 0}); err == nil {
		t.Fatal("zero max position accepted")
	}
}

func TestPnLRoundTrip(t *testing.T) {
	e := engine(t)
	// Buy 1 @102, sell 1 @100: realized PnL -2.
	req, _ := e.OnPrediction(nn.Up, 0.9, snap())
	e.OnExec(exchange.ExecReport{Exec: exchange.ExecFilled, ClOrdID: req.ClOrdID, Side: lob.Bid, Price: 102, Qty: 1})
	req, _ = e.OnPrediction(nn.Down, 0.9, snap())
	e.OnExec(exchange.ExecReport{Exec: exchange.ExecFilled, ClOrdID: req.ClOrdID, Side: lob.Ask, Price: 100, Qty: 1})
	if e.Position() != 0 {
		t.Fatalf("position %d", e.Position())
	}
	// Flat, the mark is the cash balance whatever the mid.
	for _, mid := range []float64{0, 101} {
		if got := e.MarkToMarket(mid); got != -2 {
			t.Fatalf("flat mark-to-market at %v = %v, want -2", mid, got)
		}
	}
}

func TestMarkToMarketOpenPosition(t *testing.T) {
	e := engine(t)
	req, _ := e.OnPrediction(nn.Up, 0.9, snap())
	e.OnExec(exchange.ExecReport{Exec: exchange.ExecFilled, ClOrdID: req.ClOrdID, Side: lob.Bid, Price: 102, Qty: 1})
	if got := e.MarkToMarket(105); got != 3 {
		t.Fatalf("long mark %v, want +3", got)
	}
	if got := e.MarkToMarket(100); got != -2 {
		t.Fatalf("long mark %v, want -2", got)
	}
}
