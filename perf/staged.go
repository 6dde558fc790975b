package main

import (
	"math/rand"
	"runtime"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/exchange"
	"lighttrader/internal/latency"
	"lighttrader/internal/lob"
	"lighttrader/internal/mdclient"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/orderentry"
	"lighttrader/internal/sbe"
	"lighttrader/internal/scenario"
	"lighttrader/internal/sched"
	"lighttrader/internal/serve"
	"lighttrader/internal/signal"
	"lighttrader/internal/sim"
	"lighttrader/internal/tensor"
	"lighttrader/internal/trading"
)

// The staged run pushes the workload's own packets through each layer's
// public function alone, on one goroutine, so a layer's cost can be read
// without the sockets, locks and wake-ups around it.

// perCall times f in batches of batch calls until budget is spent (at least
// five batches) and returns the median batch's nanoseconds per call. Timing
// a batch keeps the clock's own cost out of functions that take tens of
// nanoseconds.
func perCall(budget time.Duration, batch int, f func()) float64 {
	var rates []float64
	deadline := time.Now().Add(budget)
	for len(rates) < 5 || time.Now().Before(deadline) {
		start := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		rates = append(rates, float64(time.Since(start).Nanoseconds())/float64(batch))
	}
	return medianFloat(rates)
}

// sink variables keep the compiler from discarding the measured calls.
var (
	sinkPacket sbe.Packet
	sinkBytes  []byte
	sinkInt    int
)

// stubPredictor answers Up and Down in turn with confidence 0.9, so every
// tick yields exactly one order.
func stubPredictor() func(*tensor.Tensor) (nn.Direction, float32, error) {
	flip := false
	return func(*tensor.Tensor) (nn.Direction, float32, error) {
		flip = !flip
		if flip {
			return nn.Up, 0.9, nil
		}
		return nn.Down, 0.9, nil
	}
}

// stubMulti subscribes one stub-predictor pipeline per instrument.
func stubMulti(instruments []scenario.Instrument) *core.MultiPipeline {
	mp := core.NewMultiPipeline()
	for _, ins := range instruments {
		p, err := core.NewPipeline(ins.Symbol, ins.SecurityID, nil, offload.Normalizer{}, trading.Config{
			SecurityID: ins.SecurityID, OrderQty: 1, MaxPosition: 1 << 40, MinConfidence: 0.4,
			FirstClOrdID: uint64(ins.SecurityID) << 40, DecisionLogCap: 1024,
		})
		if err != nil {
			panic(err) // static config; cannot fail
		}
		p.SetPredictor(stubPredictor())
		if err := mp.Attach(p); err != nil {
			panic(err) // distinct instruments; cannot collide
		}
	}
	return mp
}

func runStaged(st *stream, seed int64, budget time.Duration, res *result) {
	const stages = 18 // sixteen timed loops; the three one-shot set-up timings take the rest
	each := budget / stages
	n := len(st.base)
	raw := func(i int) []byte { return st.ticks[i%n].Packet }

	// sbe: the two decoders and the clone the lane hand-off pays.
	var pb sbe.PacketBuffer
	i := 0
	res.set("sbe.decode_into_ns", perCall(each, 4096, func() {
		sinkPacket, _ = sbe.DecodePacketInto(raw(i), &pb)
		i++
	}))
	res.set("sbe.decode_ns", perCall(each, 4096, func() {
		sinkPacket, _ = sbe.DecodePacket(raw(i))
		i++
	}))
	res.set("sbe.clone_ns", perCall(each, 4096, func() {
		pkt, _ := sbe.DecodePacketInto(raw(i), &pb)
		sinkPacket = sbe.ClonePacket(pkt)
		i++
	})-res.metrics["sbe.decode_into_ns"])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < n; k++ {
		pkt, _ := sbe.DecodePacketInto(raw(k), &pb)
		sinkPacket = sbe.ClonePacket(pkt)
	}
	runtime.ReadMemStats(&after)
	res.set("sbe.allocs_per_packet", float64(after.Mallocs-before.Mallocs)/float64(n))

	// mdclient: the in-order fast path over one lap (a lap's sequence numbers
	// only go up, so each batch of one lap gets a fresh arbiter).
	i = 0
	var arb *mdclient.Arbiter
	res.set("mdclient.on_datagram_ns", perCall(each, n, func() {
		if i%n == 0 {
			arb = mdclient.New(func(sbe.Packet) { sinkInt++ }, 0)
		}
		_ = arb.OnDatagram(raw(i))
		i++
	}))

	// serve: decode, route, admission-free dispatch and the pipeline, inline.
	srv, err := serve.New(stubMulti(wireInstruments()), serve.Config{Lanes: 0})
	if err != nil {
		panic(err) // static config; cannot fail
	}
	res.set("serve.submit_ns", perCall(each, 4096, func() {
		_ = srv.Submit(int64(i), raw(i))
		i++
	}))

	// sched: Algorithm 1 over the (backlog, slack) pairs a flash crash
	// produces on the n2-limited rung.
	cfg, err := core.Configure(nn.NewDeepLOB(), 2, core.Limited,
		core.Options{WorkloadScheduling: true, DVFSScheduling: true})
	if err != nil {
		panic(err) // static config; cannot fail
	}
	pairs := schedPairs(cfg, seed)
	issued := 0
	for _, p := range pairs {
		if _, v := sched.PickIssueExplained(&cfg.Sched, p.queued, p.avail, cfg.Sched.PowerBudgetWatts, cfg.Sched.StaticDVFS); v == sched.VerdictIssued {
			issued++
		}
	}
	res.set("sched.issued_share", float64(issued)/float64(len(pairs)))
	res.set("sched.decide_ns", perCall(each, len(pairs), func() {
		p := pairs[i%len(pairs)]
		is, _ := sched.PickIssueExplained(&cfg.Sched, p.queued, p.avail, cfg.Sched.PowerBudgetWatts, cfg.Sched.StaticDVFS)
		sinkInt += is.Batch
		i++
	}))

	// core: book update, feature assembly and trading decision for the
	// packets of one instrument, predictor stubbed.
	var own []sbe.Packet
	var snaps []lob.Snapshot
	for k := range st.base {
		if st.base[k].sym == 0 {
			own = append(own, st.base[k].pkt)
			snaps = append(snaps, st.ticks[k].Snapshot)
		}
	}
	pipe := stubMulti(wireInstruments()[:1]).Pipelines()[0]
	res.set("core.tick_prep_ns", perCall(each, len(own), func() {
		reqs, _ := pipe.OnDecodedPacket(own[i%len(own)])
		sinkInt += len(reqs)
		i++
	}))

	eng := offload.NewEngine(offload.Normalizer{}, 0)
	res.set("offload.push_pop_ns", perCall(each, 4096, func() {
		eng.Push(snaps[i%len(snaps)])
		if in, ok := eng.Pop(); ok {
			eng.Recycle(in.Tensor)
		}
		i++
	}))

	book := lob.New("PERF")
	for lvl := int64(1); lvl <= 10; lvl++ {
		_, _ = book.Add(uint64(lvl), lob.Bid, 1000-lvl, 10)
		_, _ = book.Add(uint64(100+lvl), lob.Ask, 1000+lvl, 10)
	}
	id := uint64(1000)
	res.set("lob.add_cancel_ns", perCall(each, 4096, func() {
		id++
		_, _ = book.Add(id, lob.Bid, 1000-int64(id%10)-1, 5)
		_ = book.Cancel(id)
	}))

	// nn / tensor: the work of one inference and the rate the GEMM kernel
	// sustains on a matrix of the CNN's order of size.
	model := nn.NewSizedCNN("perf-staged", 8, 0)
	res.set("nn.flops_per_infer", float64(model.TotalFLOPs()))
	const gm, gk, gn = 96, 64, 64
	a, b, c := tensor.New(gm, gk), tensor.New(gk, gn), tensor.New(gm, gn)
	rng := rand.New(rand.NewSource(1))
	a.FillRandn(rng, 1)
	b.FillRandn(rng, 1)
	gemmNs := perCall(each, 64, func() { tensor.MatMulInto(c, a, b) })
	res.set("tensor.gemm_gflops", 2*gm*gk*gn/gemmNs)

	// orderentry: the order frame the trader encodes and the venue decodes.
	req := exchange.Request{Kind: exchange.ReqNew, SecurityID: 1, ClOrdID: 42, Side: lob.Bid,
		Type: exchange.Limit, Price: 450001, Qty: 1}
	res.set("orderentry.append_request_ns", perCall(each, 4096, func() {
		sinkBytes = orderentry.AppendRequest(sinkBytes[:0], req)
	}))
	frame := orderentry.AppendRequest(nil, req)
	res.set("orderentry.decode_frame_ns", perCall(each, 4096, func() {
		_, used, _ := orderentry.DecodeFrame(frame)
		sinkInt += used
	}))

	// signal / latency: the observability hooks the tick path would carry.
	gw, err := signal.NewGateway(signal.Config{Shards: 1})
	if err != nil {
		panic(err) // static config; cannot fail
	}
	idle, err := gw.Register("IDLE", 1)
	if err != nil {
		panic(err)
	}
	active, err := gw.Register("ACTIVE", 2)
	if err != nil {
		panic(err)
	}
	sub, err := gw.Subscribe("ACTIVE")
	if err != nil {
		panic(err)
	}
	ev := core.SignalEvent{Action: nn.Up, Confidence: 0.9, BidPrice: 1, AskPrice: 2}
	res.set("signal.publish_idle_ns", perCall(each, 4096, func() { idle.Publish(ev) }))
	res.set("signal.publish_active_ns", perCall(each, 4096, func() { active.Publish(ev) }))
	sub.Close()
	gw.Close()
	var hist latency.Histogram
	res.set("latency.record_ns", perCall(each, 4096, func() {
		hist.Record(int64(i & 0xffff))
		i++
	}))

	// Set-up layers: scenario generation, the matching engine under it, and
	// the compile that builds the scheduler's tables.
	var genRates []float64
	for k := 0; k < 3; k++ {
		src, err := scenario.New("perf-gen", wireScript(2), int64(1000+k))
		if err != nil {
			panic(err)
		}
		start := time.Now()
		ticks := src.Ticks()
		genRates = append(genRates, float64(len(ticks))/time.Since(start).Seconds())
	}
	res.set("scenario.gen_ticks_per_s", medianFloat(genRates))

	var clock int64
	ex := exchange.New(func() int64 { clock++; return clock }, nil)
	ex.ListSecurity(1, "PERF")
	for lvl := int64(1); lvl <= 10; lvl++ {
		ex.Submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: 1, ClOrdID: uint64(lvl), Side: lob.Bid, Price: 1000 - lvl, Qty: 10})
		ex.Submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: 1, ClOrdID: uint64(100 + lvl), Side: lob.Ask, Price: 1000 + lvl, Qty: 10})
	}
	res.set("exchange.submit_ns", perCall(each, 2048, func() {
		id++
		ex.Submit(exchange.Request{Kind: exchange.ReqNew, SecurityID: 1, ClOrdID: id, Side: lob.Bid, Price: 1000 - int64(id%5) - 1, Qty: 3})
		ex.Submit(exchange.Request{Kind: exchange.ReqCancel, SecurityID: 1, ClOrdID: id})
	})/2)

	var cfgMs []float64
	for k := 0; k < 3; k++ {
		start := time.Now()
		if _, err := core.Configure(nn.NewDeepLOB(), 2, core.Sufficient,
			core.Options{WorkloadScheduling: true, DVFSScheduling: true}); err != nil {
			panic(err)
		}
		cfgMs = append(cfgMs, float64(time.Since(start).Nanoseconds())/1e6)
	}
	res.set("compile.configure_ms", medianFloat(cfgMs))
}

type schedPair struct {
	queued int
	avail  int64
}

// schedPairs replays the flash-crash scenario through the simulator with a
// tracer and returns the backlog and slack at every scheduling decision it
// recorded — the inputs Algorithm 1 sees under stress.
func schedPairs(cfg core.SystemConfig, seed int64) []schedPair {
	src, err := scenario.ByName("flash-crash", seed)
	if err != nil {
		panic(err) // registry name; cannot fail
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	tr := sim.NewTracer()
	sim.RunWithOptions(src.Queries(replayTAvailNanos), sys, sim.WithProbe(tr))
	var pairs []schedPair
	for _, e := range tr.QueryEvents() {
		if e.Kind != sim.QueryIssue && e.Kind != sim.QueryDefer {
			continue
		}
		queued := e.Batch
		if queued < 1 {
			queued = 1
		}
		pairs = append(pairs, schedPair{queued, e.Query.DeadlineNanos - e.TimeNanos})
	}
	return pairs
}
