package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"lighttrader/internal/feed"
	"lighttrader/internal/lob"
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

// TestRegistryStreamsPinned holds every registry scenario's byte stream at
// seed 1 to its packet count and sha256: a change to the generator, the
// engine or the encoder that moves one byte of any stream fails here.
func TestRegistryStreamsPinned(t *testing.T) {
	pins := map[string]struct {
		packets int
		sha256  string
	}{
		"flash-crash": {6368, "69305e3de6d423a3740eded8b7d2d41bc3eb375aa9c9efeba4f5db5cc8b0d635"},
		"halt-resume": {4722, "60eb33b093bed178cb2878fe843dcd25b29663652322b6fa6294c47610e9f7c7"},
		"multi-shock": {4789, "e610e60b448e5d7c5f57effc2b8eb144b809254e9b595603633b1b9c2d8e782e"},
		"opening":     {5171, "20b2b624f9fd313fbcee5f6e0fb1a9f779d5f3ab9959b27bcffe239cc040b2e1"},
		"quiet":       {3171, "bcfbd0356af4f28b87e6741fb8852a6e66457c8f0f2a321c4184724e4fbb1d54"},
		"thin-book":   {4331, "b2436baa536501a9c816f30661414fa80eaf884ad84e7ca93c606dec4196941c"},
		"trading-day": {10531, "7519c03e1a745af719e23d8396cd82f13f109b836456bd4d2ed17dd6078517ec"},
	}
	if len(pins) != len(Names()) {
		t.Fatalf("%d pins for %d registry scenarios %v", len(pins), len(Names()), Names())
	}
	for _, name := range Names() {
		src, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		packets := src.Packets()
		for _, p := range packets {
			h.Write(p)
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := pins[name]; len(packets) != want.packets || got != want.sha256 {
			t.Errorf("%s: %d packets, sha256 %s; want %d, %s", name, len(packets), got, want.packets, want.sha256)
		}
	}
}

// TestPacketsDoNotAlias: ticks share the blocks their packets are copied
// into, so each packet's capacity must end where its bytes do, and an
// append to one must leave the next one untouched.
func TestPacketsDoNotAlias(t *testing.T) {
	src, err := ByName("multi-shock", 2)
	if err != nil {
		t.Fatal(err)
	}
	ticks := src.Ticks()
	for i := range ticks {
		if p := ticks[i].Packet; cap(p) != len(p) {
			t.Fatalf("tick %d: packet len %d cap %d", i, len(p), cap(p))
		}
	}
	for i := 0; i+1 < len(ticks); i++ {
		next := bytes.Clone(ticks[i+1].Packet)
		_ = append(ticks[i].Packet, 0xff, 0xff, 0xff, 0xff)
		if !bytes.Equal(ticks[i+1].Packet, next) {
			t.Fatalf("appending to tick %d's packet changed tick %d's", i, i+1)
		}
	}
}

// TestRegistryTicksPinned holds what TestRegistryStreamsPinned leaves out:
// every registry scenario's tick times and snapshots at seed 1, which the
// simulator's query projection and the trader's price checks read. Each
// tick contributes its TimeNanos and its snapshot's Seq, TimeNanos,
// LastTrade and both sides' levels (price, qty, orders), all as 64-bit
// little-endian words, to one sha256.
func TestRegistryTicksPinned(t *testing.T) {
	pins := map[string]string{
		"flash-crash": "a62985245e4851441c7650f0c3434af88db06177baea70b2d7395f69d0c8862d",
		"halt-resume": "38e56f4ee520761854a504a626cf8921490535fd26599f5c22cefdd5daaac5b5",
		"multi-shock": "01ece45ea5b20a2a3ba52ae46747c5d7197d4f290fbc3c80db5f47f0e1f54a51",
		"opening":     "72e3f09cce537ed119dfaa0d61e6797916801efa47efbe070ed899eb4c4d4458",
		"quiet":       "9880b208bf93e10d04f7c5af0d484e4cfbe4ce0d815093bedce850f3a8e8e93c",
		"thin-book":   "6af5f7d5711388d10cda3edbfc56324930da6b0af97f075d79e7c6ec74505aa2",
		"trading-day": "d7df823de2a9ec82b75ec58e75dc6876d5453e654e39143fcd2be7360eb20d2f",
	}
	if len(pins) != len(Names()) {
		t.Fatalf("%d pins for %d registry scenarios %v", len(pins), len(Names()), Names())
	}
	for _, name := range Names() {
		src, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := ticksDigest(src.Ticks()); got != pins[name] {
			t.Errorf("%s: ticks sha256 %s; want %s", name, got, pins[name])
		}
	}
}

// ticksDigest is TestRegistryTicksPinned's fixed encoding of a tick stream.
func ticksDigest(ticks []feed.Tick) string {
	h := sha256.New()
	var buf []byte
	word := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	for i := range ticks {
		tk := &ticks[i]
		s := &tk.Snapshot
		buf = buf[:0]
		word(tk.TimeNanos)
		word(int64(s.Seq))
		word(s.TimeNanos)
		word(s.LastTrade)
		for _, side := range [...]*[lob.DepthLevels]lob.Level{&s.Bids, &s.Asks} {
			for _, l := range side {
				word(l.Price)
				word(l.Qty)
				word(int64(l.Orders))
			}
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BenchmarkSourceTicks generates a stream shaped like the wire benchmark's:
// four instruments, four 1 s phases of 5 000 Poisson events/s, each opening
// with a snapshot of every book. Each iteration builds a fresh Source, since
// Ticks is memoised.
func BenchmarkSourceTicks(b *testing.B) {
	ins := []Instrument{
		{SecurityID: 1, Symbol: "ESU6", MidPrice: 450000, DepthPerLevel: 50},
		{SecurityID: 2, Symbol: "NQU6", MidPrice: 1500000, DepthPerLevel: 50},
		{SecurityID: 3, Symbol: "YMU6", MidPrice: 350000, DepthPerLevel: 50},
		{SecurityID: 4, Symbol: "RTYU6", MidPrice: 200000, DepthPerLevel: 50},
	}
	phases := make([]Phase, 4)
	for i := range phases {
		phases[i] = Phase{Name: "steady", DurationSecs: 1, SnapshotOnEnter: true,
			Arrivals: ArrivalSpec{RateHz: 5000}}
	}
	script := Script{Instruments: ins, Phases: phases}
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		src, err := New("bench", script, 1)
		if err != nil {
			b.Fatal(err)
		}
		n = len(src.Ticks())
	}
	b.ReportMetric(float64(n), "ticks/op")
}
