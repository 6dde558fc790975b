package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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
// append to one must leave the next one untouched. The stream itself is
// shared by every caller of Ticks, so its capacity ends with it too: one
// caller's append must not land in a slot another caller's append fills.
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
	mine := append(src.Ticks(), feed.Tick{TimeNanos: -1})
	theirs := append(src.Ticks(), feed.Tick{TimeNanos: -2})
	if got := mine[len(mine)-1].TimeNanos; got != -1 || theirs[len(theirs)-1].TimeNanos != -2 {
		t.Fatalf("two callers' appends to Ticks() share a slot: the first reads back %d", got)
	}
	if again := src.Ticks(); len(again) != len(ticks) || &again[0] != &ticks[0] {
		t.Fatal("an append to Ticks() changed the shared stream")
	}
}

// TestStreamBound: generateScript sizes the stream from streamBound before
// the first event, so the bound must never fall below the ticks published
// — across the registry and the shapes TestWorlds' perturbed scripts deal
// in — and the dry run must count each phase's flow events exactly as the
// World steps them. The ratio logged is the stream's unused headroom.
func TestStreamBound(t *testing.T) {
	type named struct {
		name   string
		script Script
		seed   int64
	}
	var cases []named
	for _, name := range Names() {
		for _, seed := range []int64{1, 2, 3, 42} {
			src, err := ByName(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, named{fmt.Sprintf("%s/seed=%d", name, seed), src.Script(), seed})
		}
	}
	calm := Phase{Name: "calm", DurationSecs: 1, Arrivals: ArrivalSpec{RateHz: 800}}
	mixture := ArrivalSpec{
		Hawkes: []feed.HawkesParams{{Mu: 600, Beta: 1}, {Mu: 6.5, Alpha: 540, Beta: 560}},
		Flash:  &feed.FlashParams{MeanIntervalSecs: 0.5, DurationSecs: 0.005, RateHz: 75000},
	}
	cases = append(cases, []named{
		{"wire-shaped", wireShapedScript(), 1},
		{"correlated", Script{Instruments: multiInstruments(), Phases: []Phase{calm,
			{Name: "shock", DurationSecs: 0.5, Correlated: true, Arrivals: ArrivalSpec{RateHz: 3000},
				Flow: FlowSpec{MarketOrderProb: 0.4, SweepProb: 0.1, SweepLevels: 4, Bias: -0.6}}}}, 5},
		{"evaporate", Script{Instruments: multiInstruments(), Phases: []Phase{calm,
			{Name: "drain", DurationSecs: 0.5, EvaporateOnEnter: 0.9, Arrivals: ArrivalSpec{RateHz: 400}},
			{Name: "drain-all", DurationSecs: 0.5, EvaporateOnEnter: 1, Correlated: true, Arrivals: ArrivalSpec{RateHz: 400}}}}, 6},
		{"withhold", Script{Instruments: []Instrument{standardInstrument()}, Phases: []Phase{calm,
			{Name: "halt", DurationSecs: 1, Withhold: true, SweepOnEnter: 3, EvaporateOnEnter: 0.5,
				SnapshotOnEnter: true, Arrivals: ArrivalSpec{RateHz: 2000}},
			{Name: "reopen", DurationSecs: 0.5, SnapshotOnEnter: true, EvaporateOnEnter: 0.3, Arrivals: ArrivalSpec{RateHz: 1500}}}}, 7},
		{"sweep", Script{Instruments: multiInstruments(), Phases: []Phase{calm,
			{Name: "crash", DurationSecs: 0.3, SweepOnEnter: 4, Arrivals: ArrivalSpec{RateHz: 8000},
				Flow: FlowSpec{SweepProb: 0.3, SweepLevels: 5, MarketOrderProb: 0.3, Bias: -0.9}}}}, 8},
		{"hawkes+flash", Script{Instruments: multiInstruments(), Phases: []Phase{
			{Name: "bursty", DurationSecs: 2, Arrivals: mixture},
			{Name: "bursty-correlated", DurationSecs: 0.5, Correlated: true, SweepOnEnter: 1, Arrivals: mixture}}}, 9},
	}...)
	for _, c := range cases {
		src, err := New(c.name, c.script, c.seed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ticks := src.Ticks()
		bound := streamBound(c.script, c.seed)
		if len(ticks) > bound {
			t.Errorf("%s: %d ticks exceed the bound %d", c.name, len(ticks), bound)
		}
		if cap(ticks) != len(ticks) {
			t.Errorf("%s: Ticks() len %d cap %d; the shared stream must be clipped", c.name, len(ticks), cap(ticks))
		}
		events := make([]int, len(c.script.Phases))
		w := NewWorld(c.script, c.seed, func([]byte) {})
		for _, ok := w.Next(); ok; _, ok = w.Next() {
			if !w.boundary {
				events[w.phase]++
			}
			w.Step()
		}
		for k, ph := range c.script.Phases {
			if want := phaseEvents(ph, c.seed+phaseSalt(k)); events[k] != want {
				t.Errorf("%s: phase %d stepped %d flow events; the dry run counts %d", c.name, k, events[k], want)
			}
		}
		fit := "kept"
		if fitCopies(len(ticks), bound) {
			fit = "copied to exact length"
		}
		t.Logf("%-22s %6d ticks, bound %6d: %.2f×, %s", c.name, len(ticks), bound, float64(bound)/float64(len(ticks)), fit)
	}
}

// TestFitStream holds the copy decision to its rule: a stream whose array
// has more than half its length again in unused slots moves to an
// exact-length array, anything tighter keeps its array, and either way the
// result is clipped and holds the same ticks.
func TestFitStream(t *testing.T) {
	for _, c := range []struct {
		n, capacity int
		copies      bool
	}{
		{n: 100, capacity: 100},
		{n: 100, capacity: 112}, // the wire-shaped script's headroom
		{n: 100, capacity: 150},
		{n: 100, capacity: 151, copies: true},
		{n: 100, capacity: 209, copies: true}, // multi-shock's
		{n: 0, capacity: 8, copies: true},
		{n: 0, capacity: 0},
	} {
		ticks := make([]feed.Tick, c.n, c.capacity)
		for i := range ticks {
			ticks[i].TimeNanos = int64(i + 1)
		}
		got := fitStream(ticks)
		if len(got) != c.n || cap(got) != c.n {
			t.Fatalf("%d of %d: fitted to len %d cap %d", c.n, c.capacity, len(got), cap(got))
		}
		if c.n > 0 && (&got[0] != &ticks[0]) != c.copies {
			t.Errorf("%d ticks in an array of %d: copied %v, want %v", c.n, c.capacity, !c.copies, c.copies)
		}
		if fitCopies(c.n, c.capacity) != c.copies {
			t.Errorf("fitCopies(%d, %d) = %v, want %v", c.n, c.capacity, !c.copies, c.copies)
		}
		for i := range got {
			if got[i].TimeNanos != int64(i+1) {
				t.Fatalf("%d of %d: tick %d holds %d", c.n, c.capacity, i, got[i].TimeNanos)
			}
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

// wireShapedScript is shaped like the wire benchmark's stream: four
// instruments, four 1 s phases of 5 000 Poisson events/s, each opening with
// a snapshot of every book.
func wireShapedScript() Script {
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
	return Script{Instruments: ins, Phases: phases}
}

// BenchmarkSourceTicks generates wireShapedScript's stream. Each iteration
// builds a fresh Source, since Ticks is memoised.
func BenchmarkSourceTicks(b *testing.B) {
	script := wireShapedScript()
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

// sourceTicksAllocs is what generating wireShapedScript's stream allocates,
// as measured: the stream, the 64 KiB packet blocks, the world and its
// books, and the arrival processes of the dry run and the real one. It is a
// measurement, not a target: a rise fails TestSourceTicksAllocs.
const sourceTicksAllocs = 325

// TestSourceTicksAllocs pins generation's allocations: no tick, snapshot or
// exec report allocates on its own.
func TestSourceTicksAllocs(t *testing.T) {
	script := wireShapedScript()
	allocs := testing.AllocsPerRun(3, func() {
		src, err := New("allocs", script, 1)
		if err != nil {
			t.Fatal(err)
		}
		src.Ticks()
	})
	t.Logf("%v allocs", allocs)
	if allocs > sourceTicksAllocs {
		t.Fatalf("generating the wire-shaped stream allocates %v times; want at most %d", allocs, sourceTicksAllocs)
	}
}
