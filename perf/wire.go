package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/orderentry"
	"lighttrader/internal/sbe"
	"lighttrader/internal/serve"
	"lighttrader/internal/tensor"
	"lighttrader/internal/trader"
	"lighttrader/internal/trading"
)

// wireSpec is one wire workload: the same sockets and trader, loaded
// differently.
type wireSpec struct {
	name string
	// cnn runs the zoo SizedCNN(8,0) forward pass on every tick; otherwise
	// the predictor is a stub and the wire path does all the work.
	cnn bool
	// dualFeed publishes every packet on an A and a B leg with disjoint 2 %
	// drops and adjacent-pair swaps on B, so the arbiter dedupes and parks.
	dualFeed bool
	// admission turns on serve.Config.Sched: Algorithm-1 admission and the
	// power governor on every dispatch.
	admission bool
	// hotWindow is the smallest closed-loop window the workload allows: a
	// swapped pair needs two packets outstanding.
	hotWindow int
	pacedRate float64 // packets per second offered in the paced phase
	// hotCap and satCap bound the packets a closed-loop phase may send per
	// second of its length, which sizes the preallocated records.
	hotCap, satCap int
}

var wireSpecs = map[string]wireSpec{
	"wire-stub":     {name: "wire-stub", hotWindow: 1, pacedRate: 5000, hotCap: 100_000, satCap: 400_000},
	"wire-cnn":      {name: "wire-cnn", cnn: true, hotWindow: 1, pacedRate: 1000, hotCap: 20_000, satCap: 40_000},
	"wire-ab-sched": {name: "wire-ab-sched", dualFeed: true, admission: true, hotWindow: 2, pacedRate: 5000, hotCap: 100_000, satCap: 400_000},
}

const (
	satWindow = 64
	// missAfter is how long a closed loop waits for an order before it writes
	// its window off and moves on, so a lost datagram cannot hang it.
	missAfter = 50 * time.Millisecond
	// settleIdle is how long a phase's end waits without any progress before
	// the ticks still unanswered count as missed. It is longer than missAfter
	// because this host stalls a whole process for tens of milliseconds now
	// and then, and an order that is late is not an order that is lost.
	settleIdle  = 250 * time.Millisecond
	settlePolls = 200
	// keepAliveMillis outlasts any run, so neither side has to heartbeat:
	// the client declares the venue dead only after three silent intervals.
	keepAliveMillis = 120_000
	dropShare       = 0.02
	// admissionBudgetNanos is the per-tick deadline of wire-ab-sched, far
	// above any batch's modelled time: admission runs on every dispatch but
	// drops nothing, even for ticks that sat out a host stall in the queue.
	admissionBudgetNanos = int64(2 * time.Second)
	laneCount            = 2
	// laneQueue is serve.Config.MaxQueue. A closed loop never has more than
	// 64 ticks queued, but after a host stall of 100 ms and more the paced
	// generator sends hundreds of packets at once, and a queue that evicted
	// some of them would leave the book mirrors, and every later price, wrong.
	laneQueue = 4096
	// reorderWindow is the arbiter's park limit. The two feed pumps are
	// scheduled independently: with 64 ticks outstanding one leg runs a
	// scheduling quantum ahead of the other, and after a host stall the paced
	// generator sends everything that fell due at once. The default of 16
	// would call either a gap on a feed that lost nothing.
	reorderWindow = 1024
	// maxBacklog bounds the datagrams in the feed sockets during a closed
	// loop: above the 128 a full window puts on two legs, well below
	// reorderWindow.
	maxBacklog     = 192
	feedReadBuffer = 4 << 20
)

// symOrders is what the benchmark knows about one instrument's order
// stream. Client order ids are allocated from a range no other instrument
// uses, so order n of the instrument is recognisable at the sink; the signal
// hook says which tick produced it.
type symOrders struct {
	firstID uint64
	// tickT[n] is the transact time of the tick behind the instrument's
	// n-th order, stored by the signal hook on the lane goroutine and read
	// by the sink.
	tickT []atomic.Int64
	// t3…t6 are the traced stage boundaries of that order (traced runs only).
	t3, t4, t5, t6 []atomic.Int64
	// hooked, enter and leave belong to the lane goroutine that owns the
	// pipeline.
	hooked       int
	enter, leave int64
	// quiet counts ticks the pipeline answered with no order.
	quiet atomic.Int64
}

// harness is the benchmark-owned venue stub (one UDP sender, one TCP order
// sink) wrapped around a real trader.MultiTrader.
type harness struct {
	spec   wireSpec
	st     *stream
	traced bool
	limit  int // packets the records can hold

	mt        *trader.MultiTrader
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	feedConns []net.PacketConn
	legs      []net.Conn
	ln        net.Listener
	sinkConn  atomic.Pointer[net.TCPConn]

	// Per packet, by global index. sendT is stamped just before the first
	// write of the packet; lat is its tick-to-order time once the sink has
	// read the order (0 until then) and belongs to the sink goroutine until
	// the generator has seen the order counted in got.
	sendT []atomic.Int64
	lat   []int64
	// Traced runs only: feed-pump boundaries, the sink stamp and the order
	// ordinal, by global index.
	t1, t2 []atomic.Int64
	t7     []int64
	ordOf  []int32

	syms     []symOrders
	symOfSec map[int32]int

	got      atomic.Int64 // orders for post-warm-up ticks read by the sink
	frames   atomic.Int64 // every order frame read by the sink
	wrong    atomic.Int64 // orders that match no tick, repeat one, or carry the wrong price
	lastRecv atomic.Int64
	progress chan struct{}
	firstErr atomic.Pointer[error] // first failure of any harness goroutine

	// Generator state (one goroutine).
	next      int
	datagrams int
	expected  int // tick packets sent since warm-up
	gaveUp    int // of those, written off as missed by a closed loop
	enc       []byte
	held      []byte // leg-B packet waiting to be sent after its successor
	heldDrop  bool
	hasHeld   bool
	dropSeed  uint64
}

// newHarness performs the whole set-up a user of the system pays before the
// first tick can be answered: stream generation, model build, scheduler
// tables, sockets, session establishment and feature-window warm-up.
func newHarness(spec wireSpec, seed int64, limit int, traced bool) (*harness, error) {
	st, err := newStream(wireScript(4), seed)
	if err != nil {
		return nil, err
	}
	if limit < st.warm+1 {
		limit = st.warm + 1
	}
	h := &harness{
		spec: spec, st: st, traced: traced, limit: limit,
		sendT: make([]atomic.Int64, limit), lat: make([]int64, limit),
		syms: make([]symOrders, len(st.secs)), symOfSec: map[int32]int{},
		progress: make(chan struct{}, 1),
		dropSeed: uint64(seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03,
	}
	if traced {
		h.t1, h.t2 = make([]atomic.Int64, limit), make([]atomic.Int64, limit)
		h.t7, h.ordOf = make([]int64, limit), make([]int32, limit)
	}
	perSym := limit/2 + 1024 // instruments are drawn uniformly; half the stream is ample for one
	mp := core.NewMultiPipeline()
	for sym, ins := range wireInstruments() {
		so := &h.syms[sym]
		so.firstID = uint64(sym+1) << 40
		so.tickT = make([]atomic.Int64, perSym)
		if traced {
			so.t3, so.t4 = make([]atomic.Int64, perSym), make([]atomic.Int64, perSym)
			so.t5, so.t6 = make([]atomic.Int64, perSym), make([]atomic.Int64, perSym)
		}
		h.symOfSec[ins.SecurityID] = sym
		model := nn.MustBuildZoo(nn.SizedCNNSpec("perf-"+ins.Symbol, 8, 0))
		p, err := core.NewPipeline(ins.Symbol, ins.SecurityID, model, offload.Normalizer{}, trading.Config{
			SecurityID: ins.SecurityID, OrderQty: 1, MaxPosition: 1 << 40, MinConfidence: 0.4,
			FirstClOrdID: so.firstID, DecisionLogCap: 1024,
		})
		if err != nil {
			return nil, err
		}
		p.SetPredictor(h.predictor(so, model))
		p.SetSignalHook(h.signalHook(so, p))
		if err := mp.Attach(p); err != nil {
			return nil, err
		}
	}

	scfg := serve.Config{Lanes: laneCount, Clock: nowNanos, MaxQueue: laneQueue}
	if spec.admission {
		cfg, err := core.Configure(nn.NewDeepLOB(), laneCount, core.Sufficient,
			core.Options{WorkloadScheduling: true, DVFSScheduling: true})
		if err != nil {
			return nil, err
		}
		scfg.Sched = &cfg.Sched
		scfg.TAvailNanos = admissionBudgetNanos
	}
	if traced {
		scfg.OnOrders = h.onOrders
	}

	h.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	nFeeds := 1
	if spec.dualFeed {
		nFeeds = 2
	}
	for i := 0; i < nFeeds; i++ {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			h.close()
			return nil, err
		}
		// A leg whose pump loses the feed lock for a scheduling quantum falls a
		// few hundred datagrams behind at saturation; the default buffer
		// would drop them. The kernel caps the request at rmem_max.
		_ = pc.(*net.UDPConn).SetReadBuffer(feedReadBuffer)
		h.feedConns = append(h.feedConns, pc)
		leg, err := net.Dial("udp", pc.LocalAddr().String())
		if err != nil {
			h.close()
			return nil, err
		}
		h.legs = append(h.legs, leg)
	}
	h.mt, err = trader.NewMulti(trader.Config{
		OrderAddr: h.ln.Addr().String(), UUID: 0x9e3f, KeepAliveMillis: keepAliveMillis,
	}, mp, reorderWindow, scfg)
	if err != nil {
		h.close()
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	h.goRun(func() { _ = h.mt.Run(ctx) })
	h.goRun(func() { _ = h.mt.Client().Run(ctx) })
	h.goRun(h.sink)
	for _, pc := range h.feedConns {
		pc := pc
		if traced {
			h.goRun(func() { h.pump(ctx, pc) })
		} else {
			h.goRun(func() { _ = h.mt.ServeFeed(ctx, pc) })
		}
	}
	readyCtx, stop := context.WithTimeout(ctx, 5*time.Second)
	err = h.mt.Client().WaitReady(readyCtx)
	stop()
	if err != nil {
		h.close()
		return nil, fmt.Errorf("order session not established: %w", err)
	}

	// Warm-up: fill every feature window, untimed.
	for h.next < st.warm {
		h.send(h.next)
		if h.next%32 == 0 {
			h.settle()
		}
	}
	h.settle()
	return h, h.failure()
}

func (h *harness) goRun(f func()) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		f()
	}()
}

// close stops every goroutine the harness started and waits for them.
func (h *harness) close() {
	if h.cancel != nil {
		h.cancel()
	}
	if h.ln != nil {
		h.ln.Close()
	}
	for _, pc := range h.feedConns {
		pc.Close()
	}
	for _, leg := range h.legs {
		leg.Close()
	}
	if c := h.sinkConn.Load(); c != nil {
		c.Close()
	}
	h.wg.Wait()
}

func (h *harness) fail(err error) {
	h.firstErr.CompareAndSwap(nil, &err)
}

func (h *harness) failure() error {
	if e := h.firstErr.Load(); e != nil {
		return *e
	}
	return nil
}

// predictor is the pipeline's forward pass. Both flavours answer Up and Down
// in turn with confidence 0.9, so every tick yields exactly one order — the
// order is how a tick is observed at the wire. The cnn flavour computes the
// real network's answer first and pays its full cost.
func (h *harness) predictor(so *symOrders, model *nn.Model) func(*tensor.Tensor) (nn.Direction, float32, error) {
	inner := stubPredictor()
	if h.spec.cnn {
		stub := inner
		inner = func(t *tensor.Tensor) (nn.Direction, float32, error) {
			if _, _, err := model.Predict(t); err != nil {
				return nn.Stationary, 0, err
			}
			return stub(t)
		}
	}
	if !h.traced {
		return inner
	}
	return func(t *tensor.Tensor) (nn.Direction, float32, error) {
		so.enter = nowNanos()
		d, c, err := inner(t)
		so.leave = nowNanos()
		return d, c, err
	}
}

// signalHook records which tick produced the instrument's n-th order. It
// runs on the lane goroutine right after the trading decision.
func (h *harness) signalHook(so *symOrders, p *core.Pipeline) core.SignalHook {
	return func(ev core.SignalEvent) {
		var t5 int64
		if h.traced {
			t5 = nowNanos()
		}
		n := p.Trader().Orders()
		if n == so.hooked {
			so.quiet.Add(1)
			return
		}
		so.hooked = n
		ord := n - 1
		if ord >= len(so.tickT) {
			h.fail(fmt.Errorf("instrument %s produced more orders than the records hold", p.Symbol()))
			return
		}
		if h.traced {
			so.t3[ord].Store(so.enter)
			so.t4[ord].Store(so.leave)
			so.t5[ord].Store(t5)
		}
		so.tickT[ord].Store(ev.TickNanos)
	}
}

// onOrders is serve.Config.OnOrders, which MultiTrader calls after the order
// has been gated, tracked, encoded and written to the session.
func (h *harness) onOrders(sec int32, reqs []exchange.Request) {
	t6 := nowNanos()
	so := &h.syms[h.symOfSec[sec]]
	for _, r := range reqs {
		if ord := int(r.ClOrdID - so.firstID - 1); ord >= 0 && ord < len(so.t6) {
			so.t6[ord].Store(t6)
		}
	}
}

// pump is the traced replacement of MultiTrader.ServeFeed: the same loop
// with a stamp after the read and after the ingest.
func (h *harness) pump(ctx context.Context, conn net.PacketConn) {
	buf := make([]byte, 64<<10)
	var pb sbe.PacketBuffer
	for ctx.Err() == nil {
		_ = conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		t1 := nowNanos()
		_ = h.mt.OnDatagram(buf[:n])
		t2 := nowNanos()
		// Which packet this was is worked out after the stamps, through the
		// program's own decoder, so no span pays for it.
		pkt, err := sbe.DecodePacketInto(buf[:n], &pb)
		if err != nil {
			continue
		}
		if i := int(pkt.SeqNum - h.st.firstSeq); i >= 0 && i < h.limit && h.t1[i].CompareAndSwap(0, t1) {
			h.t2[i].Store(t2)
		}
	}
}

// sink is the venue's order-entry side: it speaks the FIXP handshake through
// orderentry.VenueSession, stamps every order frame when it is read, checks
// it against the tick that caused it, and fills it.
func (h *harness) sink() {
	conn, err := h.ln.Accept()
	if err != nil {
		return // listener closed before the client dialled
	}
	h.sinkConn.Store(conn.(*net.TCPConn))
	vs := orderentry.NewVenueSession()
	store := make([]byte, 64<<10)
	fill := 0
	var acks []byte
	for {
		n, err := conn.Read(store[fill:])
		if err != nil {
			return
		}
		now := nowNanos()
		fill += n
		buf := store[:fill]
		acks = acks[:0]
		counted := false
		for {
			sf, used, serr := orderentry.DecodeSessionFrame(buf)
			if serr == nil {
				buf = buf[used:]
				reply, err := vs.OnFrame(sf, now)
				if err != nil {
					h.fail(fmt.Errorf("sink: session frame: %w", err))
					return
				}
				acks = append(acks, reply...)
				continue
			}
			if errors.Is(serr, orderentry.ErrILinkShort) {
				break
			}
			frame, used, err := orderentry.DecodeFrame(buf)
			if errors.Is(err, orderentry.ErrILinkShort) {
				break
			}
			if err != nil || frame.Request == nil {
				h.fail(fmt.Errorf("sink: unreadable order stream: %v", err))
				return
			}
			buf = buf[used:]
			if err := vs.OnBusiness(now); err != nil {
				h.fail(fmt.Errorf("sink: %w", err))
				return
			}
			req := frame.Request
			counted = h.onOrder(req, now) || counted
			h.frames.Add(1) // after the records are written: settle reads them once it has seen the count
			acks = orderentry.AppendExecAck(acks, orderentry.ExecAck{
				ClOrdID: req.ClOrdID, Price: req.Price, Qty: req.Qty,
				SecurityID: req.SecurityID, Exec: exchange.ExecFilled,
			})
		}
		fill = copy(store, buf)
		if len(acks) > 0 {
			if _, err := conn.Write(acks); err != nil {
				return
			}
		}
		if counted {
			h.lastRecv.Store(now)
			select {
			case h.progress <- struct{}{}:
			default:
			}
		}
	}
}

// onOrder joins one order to its tick and checks it. It reports whether the
// order answered a post-warm-up tick.
func (h *harness) onOrder(req *exchange.Request, now int64) bool {
	sym, ok := h.symOfSec[req.SecurityID]
	if !ok || req.Kind != exchange.ReqNew {
		h.wrong.Add(1)
		return false
	}
	so := &h.syms[sym]
	ord := int(req.ClOrdID - so.firstID - 1)
	if ord < 0 || ord >= len(so.tickT) {
		h.wrong.Add(1)
		return false
	}
	i := h.st.lookup(req.SecurityID, so.tickT[ord].Load())
	if i < 0 || i >= h.limit || h.sendT[i].Load() == 0 || h.st.at(i).sym != sym || !h.st.at(i).tick {
		h.wrong.Add(1)
		return false
	}
	if h.lat[i] != 0 || req.Price != h.st.touch(i, req.Side) || req.Qty != 1 {
		h.wrong.Add(1)
		return false
	}
	h.lat[i] = now - h.sendT[i].Load()
	if h.traced {
		h.t7[i], h.ordOf[i] = now, int32(ord)
	}
	if i < h.st.warm {
		return false
	}
	h.got.Add(1)
	return true
}

// uniform maps (seed, packet) to [0,1): the seeded drop decision.
func (h *harness) uniform(i int) float64 {
	z := h.dropSeed + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// send publishes global packet i. On a dual feed, leg A carries the stream
// in order and leg B swaps adjacent pairs of tick packets; each leg drops its
// own 2 % of packets and no packet is dropped on both.
func (h *harness) send(i int) {
	h.enc = h.st.encode(h.enc[:0], i)
	if h.st.at(i).tick && i >= h.st.warm {
		h.expected++
	}
	h.next = i + 1
	h.sendT[i].Store(nowNanos())
	if !h.spec.dualFeed {
		h.write(0, h.enc)
		return
	}
	// A snapshot that reaches the arbiter while an earlier packet is still
	// missing makes it resync past everything it had parked, which turns one
	// leg's drop into a loss even though the other leg carried the packet.
	// The legs' pumps can be a full window apart, so nothing is dropped
	// within reorderWindow packets of a snapshot, and only plain ticks swap.
	run := h.st.at(i).plainRun
	u := h.uniform(i)
	dropA := run > reorderWindow && u < dropShare
	dropB := run > reorderWindow && u >= dropShare && u < 2*dropShare
	if !dropA {
		h.write(0, h.enc)
	}
	if !h.hasHeld && i%2 == 0 && i+1 < h.limit && run > 1 {
		h.held = append(h.held[:0], h.enc...)
		h.heldDrop, h.hasHeld = dropB, true
		return
	}
	if !dropB {
		h.write(1, h.enc)
	}
	h.flushHeld()
}

func (h *harness) flushHeld() {
	if h.hasHeld {
		if !h.heldDrop {
			h.write(1, h.held)
		}
		h.hasHeld = false
	}
}

func (h *harness) write(leg int, buf []byte) {
	if _, err := h.legs[leg].Write(buf); err != nil {
		h.fail(fmt.Errorf("feed write: %w", err))
		return
	}
	h.datagrams++
}

// outstanding is the number of post-warm-up ticks sent, not yet answered and
// not yet written off.
func (h *harness) outstanding() int {
	return h.expected - h.gaveUp - int(h.got.Load())
}

// settle waits until everything sent so far has been ingested, dispatched
// and read back at the sink, or nothing has moved for settleIdle. A stall of
// the whole machine passes on the clock without anything having had the
// chance to move, so the wait also has to have looked settlePolls times
// since the last progress before it gives up.
func (h *harness) settle() {
	h.flushHeld() // a packet held back for leg B may be on neither leg yet
	idle := time.Now()
	last := int64(-1)
	for polls := 0; time.Since(idle) < settleIdle || polls < settlePolls; polls++ {
		fs := h.mt.FeedStats()
		// A datagram is counted when it is read, before it is ingested; the
		// arbiter's count is read under the feed lock, so once it has every
		// packet the last one has been submitted to its lane as well.
		if fs.Datagrams >= h.datagrams && h.mt.ArbiterStats().Delivered >= h.next {
			h.mt.Serve().Drain()
			if fs = h.mt.FeedStats(); int64(fs.OrdersRouted) <= h.frames.Load() {
				return
			}
		}
		if seen := int64(fs.Datagrams) + h.frames.Load(); seen != last {
			last, idle, polls = seen, time.Now(), 0
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// phase is the outcome of one timed phase.
type phase struct {
	from, to int     // global packet range
	ns       []int64 // tick-to-order times, ascending
	lat      dist
	ticks    int // tick packets sent
	missed   int // of those, unanswered
	seconds  float64
}

// finish settles the phase and collects its latency sample.
func (h *harness) finish(from int, start int64) phase {
	h.settle()
	ph := phase{from: from, to: h.next}
	var ns []int64
	for i := from; i < h.next; i++ {
		if !h.st.at(i).tick {
			continue
		}
		ph.ticks++
		if l := h.lat[i]; l != 0 {
			ns = append(ns, l)
		} else {
			ph.missed++
		}
	}
	ph.lat = summarize(ns)
	ph.ns = ns
	end := h.lastRecv.Load()
	if end <= start {
		end = nowNanos()
	}
	ph.seconds = float64(end-start) / 1e9
	// A closed loop writes ticks off as it goes; from here on only the
	// records say what was missed.
	h.gaveUp = h.expected - int(h.got.Load())
	return ph
}

// backlog is the number of datagrams sent that the trader has not yet read
// off its feed sockets, both legs together.
func (h *harness) backlog() int { return h.datagrams - h.mt.FeedStats().Datagrams }

// closedLoop keeps window ticks outstanding for d (or until budget packets
// are sent): the next tick goes out when an order comes back. It needs no
// timer, so it measures the trader and not the host's sleep.
//
// On a dual feed an order comes back as soon as either leg's copy is
// ingested, so the order count alone would let the slower leg's pump fall
// behind without limit. The loop therefore also holds the unread datagrams
// under maxBacklog, which keeps the legs within the arbiter's reorder window
// of each other and makes the rate one both pumps sustain.
func (h *harness) closedLoop(window int, d time.Duration, budget int) phase {
	from, start := h.next, nowNanos()
	stop := h.next + budget
	if stop > h.limit {
		stop = h.limit
	}
	deadline := time.Now().Add(d)
	timer := time.NewTimer(missAfter)
	defer timer.Stop()
	for h.next < stop && time.Now().Before(deadline) && h.failure() == nil {
		for h.outstanding() < window && h.backlog() < maxBacklog && h.next < stop {
			h.send(h.next)
		}
		full := h.outstanding() >= window
		wait := missAfter
		if !full {
			wait = time.Millisecond // held by the backlog, which sends no signal
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-h.progress:
		case <-timer.C:
			if full {
				// Nothing came back: count the window as missed rather than hang.
				h.gaveUp += h.outstanding()
			}
		}
	}
	return h.finish(from, start)
}

// paced offers packets on a seeded Poisson schedule regardless of what comes
// back: sleep to the next due time, send everything due. The host's timer
// wakes late, so lateness is reported and latency runs from the send stamp.
func (h *harness) paced(rate float64, d time.Duration, seed int64) (phase, genStats) {
	rng := rand.New(rand.NewSource(seed))
	var due []int64
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate * 1e9
		if t >= float64(d) || h.next+len(due) >= h.limit {
			break
		}
		due = append(due, int64(t))
	}
	late := make([]int64, 0, len(due))
	from, start := h.next, nowNanos()
	for k := 0; k < len(due) && h.failure() == nil; {
		now := nowNanos()
		if wait := start + due[k] - now; wait > 0 {
			time.Sleep(time.Duration(wait))
			continue
		}
		for k < len(due) && start+due[k] <= now {
			h.send(h.next)
			late = append(late, h.sendT[h.next-1].Load()-(start+due[k]))
			k++
		}
	}
	sent := nowNanos()
	ph := h.finish(from, start)
	gs := genStats{lateNs: late}
	if len(due) > 0 && sent > start {
		offered := float64(len(due)) / (float64(due[len(due)-1]) / 1e9)
		gs.achievedShare = float64(len(late)) / (float64(sent-start) / 1e9) / offered
	}
	return ph, gs
}

// genStats says how well the paced generator kept its schedule.
type genStats struct {
	lateNs        []int64 // send stamp minus due time, per packet
	achievedShare float64 // rate achieved ÷ rate offered
}

// memDelta is the allocation a phase caused, per tick.
type memDelta struct{ allocs, bytes float64 }

func measureAllocs(f func() phase) (phase, memDelta) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ph := f()
	runtime.ReadMemStats(&after)
	var md memDelta
	if ph.ticks > 0 {
		md.allocs = float64(after.Mallocs-before.Mallocs) / float64(ph.ticks)
		md.bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(ph.ticks)
	}
	return ph, md
}

// verify runs the end-of-run output checks that need the whole run.
func (h *harness) verify() []string {
	var bad []string
	if err := h.failure(); err != nil {
		bad = append(bad, err.Error())
	}
	if n := h.wrong.Load(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d orders matched no tick, repeated one, or carried the wrong price", n))
	}
	st := h.mt.Serve().Stats()
	if st.Served+st.Late+st.Dropped() != st.Submitted {
		bad = append(bad, fmt.Sprintf("serve accounting: served %d + late %d + dropped %d != submitted %d",
			st.Served, st.Late, st.Dropped(), st.Submitted))
	}
	if st.Errors != 0 {
		bad = append(bad, fmt.Sprintf("%d pipeline errors", st.Errors))
	}
	as := h.mt.ArbiterStats()
	if as.Delivered != h.next || as.Gaps != 0 {
		bad = append(bad, fmt.Sprintf("arbiter delivered %d of %d packets with %d gaps", as.Delivered, h.next, as.Gaps))
	}
	if cs := h.mt.Client().Stats(); cs.Reconnects != 0 {
		bad = append(bad, fmt.Sprintf("order session reconnected %d times", cs.Reconnects))
	}
	for sym, want := range h.st.lastBooks(h.next) {
		got, ok := h.mt.Book(h.st.secs[sym])
		if !ok || !sameBook(got, want) {
			bad = append(bad, fmt.Sprintf("book mirror of security %d differs from the stream's last snapshot", h.st.secs[sym]))
		}
		if q := h.syms[sym].quiet.Load(); q != 0 {
			bad = append(bad, fmt.Sprintf("security %d answered %d ticks with no order", h.st.secs[sym], q))
		}
	}
	return bad
}

// sameBook compares price and quantity per level: the mirror is
// market-by-price and does not carry order counts.
func sameBook(a, b lob.Snapshot) bool {
	for l := 0; l < lob.DepthLevels; l++ {
		if a.Bids[l].Price != b.Bids[l].Price || a.Bids[l].Qty != b.Bids[l].Qty ||
			a.Asks[l].Price != b.Asks[l].Price || a.Asks[l].Qty != b.Asks[l].Qty {
			return false
		}
	}
	return true
}
