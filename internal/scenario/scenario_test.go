package scenario

import (
	"bytes"
	"testing"

	"lighttrader/internal/sbe"
)

func TestSameSeedByteIdentical(t *testing.T) {
	for _, name := range Names() {
		a, err := ByName(name, 42)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		b, _ := ByName(name, 42)
		pa, pb := a.Packets(), b.Packets()
		if len(pa) == 0 {
			t.Fatalf("%s: scenario produced no packets", name)
		}
		if len(pa) != len(pb) {
			t.Fatalf("%s: same seed produced %d vs %d packets", name, len(pa), len(pb))
		}
		for i := range pa {
			if !bytes.Equal(pa[i], pb[i]) {
				t.Fatalf("%s: packet %d differs between same-seed runs", name, i)
			}
		}
		ta, tb := a.Ticks(), b.Ticks()
		for i := range ta {
			if ta[i].TimeNanos != tb[i].TimeNanos {
				t.Fatalf("%s: tick %d timestamp differs", name, i)
			}
		}
	}
}

func TestDifferentSeedDiverges(t *testing.T) {
	a, _ := ByName("flash-crash", 1)
	b, _ := ByName("flash-crash", 2)
	pa, pb := a.Packets(), b.Packets()
	if len(pa) == len(pb) {
		same := true
		for i := range pa {
			if !bytes.Equal(pa[i], pb[i]) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical streams")
		}
	}
}

// TestHaltSequenceGap asserts the halt phase's defining property: the venue
// keeps matching (sequence numbers advance) while publishing nothing, so the
// packet straddling the halt carries a sequence jump bigger than any reorder
// window.
func TestHaltSequenceGap(t *testing.T) {
	src, err := ByName("halt-resume", 7)
	if err != nil {
		t.Fatal(err)
	}
	spans := src.PhaseSpans()
	ticks := src.Ticks()
	var halt *PhaseSpan
	for i := range spans {
		if spans[i].Name == "halt" {
			halt = &spans[i]
		}
	}
	if halt == nil {
		t.Fatal("halt-resume scenario has no halt span")
	}
	if halt.Ticks != 0 {
		t.Fatalf("halt phase published %d ticks; want 0", halt.Ticks)
	}
	if halt.Withheld == 0 {
		t.Fatal("halt phase withheld no packets; the halt did nothing")
	}
	last, err := sbe.DecodePacket(ticks[halt.FirstTick-1].Packet)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sbe.DecodePacket(ticks[halt.FirstTick].Packet)
	if err != nil {
		t.Fatal(err)
	}
	gap := int(first.SeqNum) - int(last.SeqNum) - 1
	if gap < halt.Withheld {
		t.Fatalf("sequence gap %d smaller than %d withheld packets", gap, halt.Withheld)
	}
	if gap <= 16 {
		t.Fatalf("gap %d not larger than the default reorder window; halt would be bridgeable", gap)
	}
}

func TestPhaseSpansConsistent(t *testing.T) {
	src, _ := ByName("trading-day", 3)
	ticks := src.Ticks()
	spans := src.PhaseSpans()
	total := 0
	for i, sp := range spans {
		if sp.FirstTick != total {
			t.Fatalf("span %d (%s): FirstTick %d, want %d", i, sp.Name, sp.FirstTick, total)
		}
		total += sp.Ticks
		for j := sp.FirstTick; j < sp.FirstTick+sp.Ticks; j++ {
			if ticks[j].TimeNanos < sp.StartNanos || ticks[j].TimeNanos >= sp.EndNanos {
				t.Fatalf("span %s: tick %d at %d outside [%d,%d)",
					sp.Name, j, ticks[j].TimeNanos, sp.StartNanos, sp.EndNanos)
			}
		}
	}
	if total != len(ticks) {
		t.Fatalf("spans cover %d ticks, stream has %d", total, len(ticks))
	}
}

// TestTicksWellFormed: routine flow's ticks are in time order, every
// packet parses, and every snapshot is a two-sided, uncrossed book (the
// stress scenarios may sweep a side empty on purpose).
func TestTicksWellFormed(t *testing.T) {
	src, _ := ByName("quiet", 3)
	prev := int64(0)
	for i, tk := range src.Ticks() {
		if tk.TimeNanos < prev {
			t.Fatalf("tick %d: time went backwards", i)
		}
		prev = tk.TimeNanos
		if _, err := sbe.DecodePacket(tk.Packet); err != nil {
			t.Fatalf("tick %d packet: %v", i, err)
		}
		bid, ask := tk.Snapshot.Bids[0].Price, tk.Snapshot.Asks[0].Price
		if bid == 0 || ask == 0 {
			t.Fatalf("tick %d: empty top of book %+v", i, tk.Snapshot)
		}
		if bid >= ask {
			t.Fatalf("tick %d: crossed snapshot", i)
		}
	}
}

// TestPriceMoves: routine flow moves the mid; a stream that never leaves
// its opening price exercises nothing downstream.
func TestPriceMoves(t *testing.T) {
	src, _ := ByName("quiet", 1)
	ticks := src.Ticks()
	first := ticks[0].Snapshot.MidPrice()
	for _, tk := range ticks {
		if tk.Snapshot.MidPrice() != first {
			return
		}
	}
	t.Fatalf("mid price never moved over %d ticks", len(ticks))
}

func TestQueriesProjection(t *testing.T) {
	src, _ := ByName("quiet", 11)
	qs := src.Queries(20_000_000)
	ticks := src.Ticks()
	if len(qs) != len(ticks) {
		t.Fatalf("%d queries for %d ticks", len(qs), len(ticks))
	}
	for i, q := range qs {
		if q.ArrivalNanos != ticks[i].TimeNanos {
			t.Fatalf("query %d arrival %d != tick time %d", i, q.ArrivalNanos, ticks[i].TimeNanos)
		}
		if q.DeadlineNanos != q.ArrivalNanos+20_000_000 {
			t.Fatalf("query %d deadline misses t_avail", i)
		}
	}
}

func TestRegistryValidation(t *testing.T) {
	if _, err := ByName("no-such-regime", 1); err == nil {
		t.Fatal("unknown scenario name should error")
	}
	if _, err := New("bad", Script{}, 1); err == nil {
		t.Fatal("empty script should fail validation")
	}
	if _, err := New("bad", Script{
		Instruments: []Instrument{{SecurityID: 1, Symbol: "X", MidPrice: 5000}},
		Phases:      []Phase{{Name: "p", DurationSecs: -1}},
	}, 1); err == nil {
		t.Fatal("negative duration should fail validation")
	}
	if _, err := New("bad", Script{
		Instruments: []Instrument{{SecurityID: 1, Symbol: "X", MidPrice: 5}},
		Phases:      []Phase{{Name: "p", DurationSecs: 1}},
	}, 1); err == nil {
		t.Fatal("a mid price inside the quoting offsets should fail validation")
	}
	if len(Names()) < 6 {
		t.Fatalf("registry too small: %v", Names())
	}
}

// TestMultiShockCoversAllInstruments asserts the correlated shock touches
// every listed book.
func TestMultiShockCoversAllInstruments(t *testing.T) {
	src, _ := ByName("multi-shock", 5)
	seen := map[int32]bool{}
	for _, tk := range src.Ticks() {
		pkt, err := sbe.DecodePacket(tk.Packet)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range pkt.Messages {
			if m.Incremental != nil {
				for _, e := range m.Incremental.Entries {
					seen[e.SecurityID] = true
				}
			}
			if m.Trade != nil {
				seen[m.Trade.SecurityID] = true
			}
			if m.Snapshot != nil {
				seen[m.Snapshot.SecurityID] = true
			}
		}
	}
	for _, ins := range multiInstruments() {
		if !seen[ins.SecurityID] {
			t.Fatalf("instrument %d (%s) never appeared in the stream", ins.SecurityID, ins.Symbol)
		}
	}
}
