package scenario

// The scripted world: a multi-instrument matching engine driven phase by
// phase, one event at a time. Withheld phases keep mutating books (and
// advancing the channel sequence) while publishing nothing, which is how a
// trading halt manifests to subscribers — silence, then an unbridgeable
// sequence gap that only the reopen snapshot heals.

import (
	"math/rand"
	"slices"

	"lighttrader/internal/exchange"
	"lighttrader/internal/feed"
	"lighttrader/internal/lob"
)

// backstopOffset places untouchable deep liquidity far from mid so sweeps
// and evaporation can never fully empty a side (a truly empty book would
// reject market flow and stall the scenario).
const backstopOffset = int64(lob.DepthLevels + 40)

// backstopQty is effectively infinite relative to scenario flow.
const backstopQty = int64(1) << 20

// firstOrderID is where the world's own order ids start, far above any id
// a client of the live venue picks.
const firstOrderID = uint64(1) << 32

// phaseSalt derives per-phase arrival seeds so phases are independent
// draws of one seeded experiment.
func phaseSalt(i int) int64 { return int64(i+1) * 104729 }

// World plays a script's order flow on its own matching engine, one event
// at a time: Next says when the next event is due in scripted time, Step
// applies it. The engine's clock is the scripted time reached, so other
// requests submitted between events (the live venue's clients) carry it
// too, and every packet passes the withhold gate of the running phase.
// Offline, generateScript steps a World to the end; the live venue steps
// one as the wall clock reaches each event. A World is not safe for
// concurrent use.
type World struct {
	script  Script
	seed    int64
	rng     *rand.Rand
	eng     *exchange.Engine
	books   map[int32]*lob.Book
	live    map[int32][]uint64
	publish exchange.Publisher
	levels  []lob.Level           // sweep's scratch
	reps    []exchange.ExecReport // submit's reports, reused

	now      int64 // scripted time: the engine's clock
	nextID   uint64
	touched  int32 // the instrument of the engine call in progress
	withhold bool

	// published and withheld count the packets the gate let through and
	// dropped; a phase's span takes its share when the phase closes.
	published, withheld, withheldAtOpen int
	spans                               []PhaseSpan

	// The event cursor: phase indexes the running phase (-1 before the
	// script, len(Phases) once it has ended) and next is the time of the
	// next event, the boundary that opens the following phase when
	// boundary is set.
	phase    int
	proc     feed.ArrivalProcess
	flow     FlowSpec
	next     int64
	boundary bool
}

// NewWorld lists the script's instruments and seeds their books; the
// seeding is not published. publish receives every packet the world lets
// through and must not retain it. The first event is the opening boundary
// at time 0.
func NewWorld(script Script, seed int64, publish exchange.Publisher) *World {
	w := &World{
		script:   script,
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		books:    make(map[int32]*lob.Book, len(script.Instruments)),
		live:     make(map[int32][]uint64, len(script.Instruments)),
		publish:  publish,
		nextID:   firstOrderID,
		spans:    make([]PhaseSpan, 0, len(script.Phases)),
		phase:    -1,
		boundary: true,
	}
	w.eng = exchange.New(func() int64 { return w.now }, w.gate)
	for _, ins := range script.Instruments {
		w.eng.ListSecurity(ins.SecurityID, ins.Symbol)
		w.books[ins.SecurityID], _ = w.eng.Book(ins.SecurityID)
	}
	w.withhold = true
	w.seedBooks()
	w.withhold = false
	return w
}

// arenaBlock is the size of the blocks generateScript copies packets
// into: its packets cost one allocation per block instead of one each.
const arenaBlock = 64 << 10

// generateScript materialises a script into its tick stream and spans:
// every published packet becomes one Tick, stamped with the touched
// instrument's post-event snapshot. The stream is allocated once, at
// streamBound's capacity, and each tick is written once, in its slot.
func generateScript(script Script, seed int64) ([]feed.Tick, []PhaseSpan) {
	ticks := make([]feed.Tick, 0, streamBound(script, seed))
	var arena []byte
	var w *World
	w = NewWorld(script, seed, func(buf []byte) {
		if len(arena)+len(buf) > cap(arena) {
			arena = make([]byte, 0, max(arenaBlock, len(buf)))
		}
		i := len(arena)
		arena = append(arena, buf...)
		// Grow does nothing while the bound holds; past it, the stream
		// regrows and stays correct.
		ticks = slices.Grow(ticks, 1)[:len(ticks)+1]
		tk := &ticks[len(ticks)-1]
		tk.TimeNanos = w.now
		// Capacity ends with the packet, so an append to one tick's
		// packet never writes into the next one's bytes.
		tk.Packet = arena[i:len(arena):len(arena)]
		w.books[w.touched].SnapshotInto(&tk.Snapshot, w.now)
	})
	for _, ok := w.Next(); ok; _, ok = w.Next() {
		w.Step()
	}
	return fitStream(ticks), w.spans
}

// fitStream returns the finished stream clipped to its length, so that one
// reader's append to the shared stream cannot write into spare capacity
// another reader sees. Where the bound left more than half the ticks' count
// unused (the multi-shock and flash-crash scripts, up to 2.1× the ticks),
// the ticks move to an exact-length array instead, and the bound-sized one
// is garbage rather than kept alive, unused, for the Source's life. A
// tighter bound (the wire-shaped script's is 1.12×) keeps its array: the
// copy would cost generation time for little memory.
func fitStream(ticks []feed.Tick) []feed.Tick {
	if !fitCopies(len(ticks), cap(ticks)) {
		return ticks[:len(ticks):len(ticks)]
	}
	exact := make([]feed.Tick, len(ticks))
	copy(exact, ticks)
	return exact
}

// fitCopies reports whether fitStream copies n ticks out of an array of
// capacity: whether more than n/2 of its slots are unused.
func fitCopies(n, capacity int) bool { return 2*capacity > 3*n }

// streamBound is an upper bound, fixed before the first event, on the
// ticks script publishes at seed. The arrival processes read no book, so a
// dry run of each phase's process counts its flow events exactly. A flow event submits once, or once per
// instrument when Correlated, and a submit publishes at most one packet. A
// phase entry publishes a snapshot and a sweep per instrument at most, and
// its evaporation cancels at most EvaporateOnEnter of each book's tracked
// orders, which number no more than the flow submits so far. A withheld
// phase publishes nothing.
func streamBound(script Script, seed int64) int {
	n := len(script.Instruments)
	bound, submits := 0, 0
	for k, ph := range script.Phases {
		entry := 0
		if ph.SnapshotOnEnter {
			entry += n
		}
		if ph.SweepOnEnter > 0 {
			entry += n
		}
		entry += int(ph.EvaporateOnEnter * float64(submits))
		flow := phaseEvents(ph, seed+phaseSalt(k))
		if ph.Correlated {
			flow *= n
		}
		submits += flow
		if !ph.Withhold {
			bound += entry + flow
		}
	}
	return bound
}

// phaseEvents counts a phase's flow events as World.Step draws them: every
// arrival before the phase's duration has elapsed.
func phaseEvents(ph Phase, seed int64) int {
	proc := ph.Arrivals.process(seed)
	dur := int64(ph.DurationSecs * 1e9)
	n := 0
	for proc.NextNanos() < dur {
		n++
	}
	return n
}

// Next returns the scripted time of the next event; ok is false once the
// script has ended.
func (w *World) Next() (nanos int64, ok bool) {
	return w.next, w.phase < len(w.script.Phases)
}

// Step applies the next event at its scripted time: a phase boundary
// (closing the running phase and firing the next one's entry actions) or
// one flow event. It does nothing once the script has ended.
func (w *World) Step() {
	if _, ok := w.Next(); !ok {
		return
	}
	w.now = w.next
	switch {
	case w.boundary:
		w.enter(w.phase + 1)
	case w.script.Phases[w.phase].Correlated:
		for _, ins := range w.script.Instruments {
			w.step(ins.SecurityID)
		}
	default:
		w.step(w.pickInstrument())
	}
	if w.phase == len(w.script.Phases) {
		return
	}
	sp := &w.spans[w.phase]
	t := sp.StartNanos + w.proc.NextNanos()
	w.boundary = t >= sp.EndNanos
	w.next = min(t, sp.EndNanos)
}

// Submit applies one order-entry request at the scripted time reached and
// returns its reports in a slice the caller owns.
func (w *World) Submit(req exchange.Request) []exchange.ExecReport {
	w.touched = req.SecurityID
	return w.eng.Submit(req)
}

// submit applies one of the world's own requests. Its reports share one
// buffer and last until the next submit.
func (w *World) submit(req exchange.Request) []exchange.ExecReport {
	w.touched = req.SecurityID
	w.reps = w.eng.AppendSubmit(w.reps[:0], req)
	return w.reps
}

// PublishSnapshots publishes a full recovery snapshot of every listed book,
// through the withhold gate.
func (w *World) PublishSnapshots() {
	for _, ins := range w.script.Instruments {
		w.touched = ins.SecurityID
		_ = w.eng.PublishSnapshot(ins.SecurityID)
	}
}

// Snapshot returns the instrument's book at the scripted time reached, or
// an empty snapshot for an unlisted one.
func (w *World) Snapshot(sec int32) lob.Snapshot {
	if b, ok := w.books[sec]; ok {
		return b.TakeSnapshot(w.now)
	}
	return lob.Snapshot{}
}

// gate is the engine's publish sink: a withheld phase drops its packets,
// anything else reaches publish.
func (w *World) gate(buf []byte) {
	if w.withhold {
		w.withheld++
		return
	}
	w.published++
	w.publish(buf)
}

// enter closes the running phase and opens phase k, if the script has one,
// firing its boundary actions: the reopen snapshot first (recovery precedes
// new flow), then the liquidity drain, then the opening sweep dominoes.
func (w *World) enter(k int) {
	if k > 0 {
		sp := &w.spans[k-1]
		sp.Ticks = w.published - sp.FirstTick
		sp.Withheld = w.withheld - w.withheldAtOpen
	}
	w.phase = k
	w.withhold = false
	if k == len(w.script.Phases) {
		return
	}
	ph := w.script.Phases[k]
	w.spans = append(w.spans, PhaseSpan{Name: ph.Name, StartNanos: w.now,
		EndNanos: w.now + int64(ph.DurationSecs*1e9), FirstTick: w.published})
	w.withheldAtOpen = w.withheld
	w.withhold = ph.Withhold
	w.flow = ph.Flow
	if w.flow == (FlowSpec{}) {
		w.flow = DefaultFlow()
	}
	if ph.SnapshotOnEnter {
		w.PublishSnapshots()
	}
	if ph.EvaporateOnEnter > 0 {
		for _, ins := range w.script.Instruments {
			w.evaporate(ins.SecurityID, ph.EvaporateOnEnter)
		}
	}
	if ph.SweepOnEnter > 0 {
		for _, ins := range w.script.Instruments {
			w.sweep(ins.SecurityID, ph.SweepOnEnter, ph.Flow.Bias)
		}
	}
	w.proc = ph.Arrivals.process(w.seed + phaseSalt(k))
}

// seedBooks places the visible opening depth plus the deep backstop.
func (w *World) seedBooks() {
	for _, ins := range w.script.Instruments {
		depth := ins.DepthPerLevel
		if depth <= 0 {
			depth = 50
		}
		for lvl := int64(1); lvl <= lob.DepthLevels; lvl++ {
			w.submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: ins.SecurityID,
				ClOrdID: w.id(), Side: lob.Bid, Price: ins.MidPrice - lvl, Qty: depth})
			w.submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: ins.SecurityID,
				ClOrdID: w.id(), Side: lob.Ask, Price: ins.MidPrice + lvl, Qty: depth})
		}
		w.submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: ins.SecurityID,
			ClOrdID: w.id(), Side: lob.Bid, Price: ins.MidPrice - backstopOffset, Qty: backstopQty})
		w.submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: ins.SecurityID,
			ClOrdID: w.id(), Side: lob.Ask, Price: ins.MidPrice + backstopOffset, Qty: backstopQty})
	}
}

// pickInstrument draws the event's instrument. Single-instrument scripts
// consume no randomness here, so adding instruments never perturbs an
// existing single-symbol scenario's flow sequence.
func (w *World) pickInstrument() int32 {
	if len(w.script.Instruments) == 1 {
		return w.script.Instruments[0].SecurityID
	}
	return w.script.Instruments[w.rng.Intn(len(w.script.Instruments))].SecurityID
}

// step performs one flow action of the running phase on one instrument.
func (w *World) step(sec int32) {
	f := w.flow
	r := w.rng.Float64()
	live := w.live[sec]
	switch {
	case r < f.SweepProb:
		w.sweep(sec, f.SweepLevels, f.Bias)
	case r < f.SweepProb+f.MarketOrderProb:
		w.submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: sec,
			ClOrdID: w.id(), Side: w.pickSide(f.Bias), Type: exchange.Market,
			Qty: int64(1 + w.rng.Intn(max(1, f.QtyMax)))})
	case r < f.SweepProb+f.MarketOrderProb+f.CancelProb && len(live) > 0:
		idx := w.rng.Intn(len(live))
		id := live[idx]
		w.live[sec] = append(live[:idx], live[idx+1:]...)
		w.submit(exchange.Request{Kind: exchange.ReqCancel, SecurityID: sec, ClOrdID: id})
	case r < f.SweepProb+f.MarketOrderProb+f.CancelProb+f.ReplaceProb && len(live) > 0:
		idx := w.rng.Intn(len(live))
		id := live[idx]
		w.live[sec] = append(live[:idx], live[idx+1:]...)
		side := lob.Bid
		if o, ok := w.books[sec].Order(id); ok {
			side = o.Side
		}
		newID := w.id()
		reps := w.submit(exchange.Request{Kind: exchange.ReqReplace, SecurityID: sec,
			ClOrdID: id, NewClOrdID: newID, Side: side, Price: w.limitPrice(sec, side, f),
			Qty: int64(1 + w.rng.Intn(max(1, f.QtyMax)))})
		if reps[0].Exec == exchange.ExecReplaced {
			if _, resting := w.books[sec].Order(newID); resting {
				w.live[sec] = append(w.live[sec], newID)
			}
		}
	default:
		side := w.pickSide(f.Bias)
		id := w.id()
		w.submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: sec,
			ClOrdID: id, Side: side, Price: w.limitPrice(sec, side, f),
			Qty: int64(1 + w.rng.Intn(max(1, f.QtyMax)))})
		if _, resting := w.books[sec].Order(id); resting {
			w.live[sec] = append(w.live[sec], id)
		}
	}
}

// sweep submits a marketable order sized to consume the top `levels` of the
// opposite side in one event — the cascade primitive of a flash crash.
func (w *World) sweep(sec int32, levels int, bias float64) {
	if levels <= 0 {
		levels = DefaultFlow().SweepLevels
	}
	side := w.pickSide(bias)
	w.levels = w.books[sec].AppendLevels(w.levels[:0], side.Opposite(), min(levels, lob.DepthLevels))
	var qty int64
	for _, lvl := range w.levels {
		qty += lvl.Qty
	}
	if qty == 0 {
		return
	}
	w.submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: sec,
		ClOrdID: w.id(), Side: side, Type: exchange.Market, Qty: qty})
}

// evaporate cancels a fraction of the instrument's tracked resting orders —
// liquidity evaporation as the cancel storm subscribers actually see.
func (w *World) evaporate(sec int32, frac float64) {
	live := w.live[sec]
	n := int(frac * float64(len(live)))
	for i := 0; i < n && len(live) > 0; i++ {
		idx := w.rng.Intn(len(live))
		id := live[idx]
		live = append(live[:idx], live[idx+1:]...)
		w.submit(exchange.Request{Kind: exchange.ReqCancel, SecurityID: sec, ClOrdID: id})
	}
	w.live[sec] = live
}

// pickSide draws the aggressor side under directional bias.
func (w *World) pickSide(bias float64) lob.Side {
	if w.rng.Float64() < 0.5*(1+bias) {
		return lob.Bid
	}
	return lob.Ask
}

// limitPrice draws a passive price near mid, crossing with CrossProb.
func (w *World) limitPrice(sec int32, side lob.Side, f FlowSpec) int64 {
	mid := w.mid(sec)
	maxOff := f.MaxOffset
	if maxOff <= 0 {
		maxOff = DefaultFlow().MaxOffset
	}
	off := 1 + w.rng.Int63n(maxOff)
	if w.rng.Float64() < f.CrossProb {
		off = -off
	}
	if side == lob.Bid {
		return mid - off
	}
	return mid + off
}

// mid returns the instrument's current midpoint, falling back to its
// configured opening mid.
func (w *World) mid(sec int32) int64 {
	if m, ok := w.books[sec].Mid(); ok {
		return int64(m)
	}
	for _, ins := range w.script.Instruments {
		if ins.SecurityID == sec {
			return ins.MidPrice
		}
	}
	return 0
}

func (w *World) id() uint64 {
	w.nextID++
	return w.nextID
}
