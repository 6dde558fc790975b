package venue_test

import (
	"testing"
	"time"

	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
	"lighttrader/internal/orderentry"
	"lighttrader/internal/testutil"
)

// orderPairAllocs is what the venue allocates for one new + cancel pair on
// an established loopback session, measured, not a target: the connection's
// read, the frame decode, both requests applied to the world under its lock,
// the book updates published, and the two acks encoded and written. A rise
// is allocation creep on the venue's order path and fails CI (make
// bench-tickpath).
const orderPairAllocs = 0

// TestServerOrderPathAllocs pins orderPairAllocs. AllocsPerRun counts the
// whole process, so the client side below allocates nothing either: it
// encodes into one buffer, reads into another and decodes the acks into
// storage it owns.
func TestServerOrderPathAllocs(t *testing.T) {
	// The session's hour-long keep-alive keeps the venue's Sequence
	// heartbeats, which allocate, out of the measured loop.
	conn := testutil.DialSession(t, startServer(t, listenFeed(t)))
	if err := conn.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}

	var (
		id       uint64
		out      = make([]byte, 0, 128)
		in       = make([]byte, 1024)
		req      exchange.Request
		ack      orderentry.ExecAck
		acked    int
		failures int
	)
	pair := func() {
		id++
		// A bid resting on a seeded level, then its cancel: the book ends
		// where it began.
		out = orderentry.AppendRequest(out[:0], exchange.Request{Kind: exchange.ReqNew,
			SecurityID: 7, ClOrdID: id, Side: lob.Bid, Price: 449995, Qty: 1})
		out = orderentry.AppendRequest(out, exchange.Request{Kind: exchange.ReqCancel,
			SecurityID: 7, ClOrdID: id})
		if _, err := conn.Write(out); err != nil {
			failures++
			return
		}
		held := 0
		for got := 0; got < 2; {
			n, err := conn.Read(in[held:])
			if err != nil {
				failures++
				return
			}
			held += n
			rest := in[:held]
			for {
				frame, consumed, err := orderentry.DecodeFrameInto(rest, &req, &ack)
				if err != nil {
					break
				}
				rest = rest[consumed:]
				if frame.Ack != nil && frame.Ack.ClOrdID == id {
					got++
					acked++
				}
			}
			held = copy(in, rest)
		}
	}
	for i := 0; i < 64; i++ {
		pair()
	}
	const runs = 500
	got := testing.AllocsPerRun(runs, pair)
	if failures > 0 || acked != 2*(64+runs+1) {
		t.Fatalf("the measured loop is not the order path: %d acks for %d pairs, %d session failures",
			acked, 64+runs+1, failures)
	}
	t.Logf("%v allocs per new + cancel pair", got)
	if got > orderPairAllocs {
		t.Fatalf("the venue allocates %v per new + cancel pair, pinned at %v", got, orderPairAllocs)
	}
}
