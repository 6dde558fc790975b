package orderentry

import (
	"reflect"
	"testing"
	"testing/quick"

	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
)

func TestILinkNewOrderRoundTrip(t *testing.T) {
	req := exchange.Request{
		Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: 99,
		Side: lob.Ask, Type: exchange.Limit, Price: 450025, Qty: 12,
	}
	buf := AppendRequest(nil, req)
	frame, n, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) || frame.Request == nil {
		t.Fatalf("n=%d frame=%+v", n, frame)
	}
	if !reflect.DeepEqual(*frame.Request, req) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", *frame.Request, req)
	}
}

func TestILinkMarketOrder(t *testing.T) {
	req := exchange.Request{Kind: exchange.ReqNew, SecurityID: 1, ClOrdID: 1,
		Side: lob.Bid, Type: exchange.Market, Qty: 2}
	frame, _, err := DecodeFrame(AppendRequest(nil, req))
	if err != nil {
		t.Fatal(err)
	}
	if frame.Request.Type != exchange.Market || frame.Request.Side != lob.Bid {
		t.Fatalf("frame = %+v", frame.Request)
	}
}

func TestILinkCancelReplaceRoundTrip(t *testing.T) {
	for _, req := range []exchange.Request{
		{Kind: exchange.ReqCancel, SecurityID: 7, ClOrdID: 5},
		{Kind: exchange.ReqReplace, SecurityID: 7, ClOrdID: 5, NewClOrdID: 6, Price: -3, Qty: 9},
	} {
		frame, _, err := DecodeFrame(AppendRequest(nil, req))
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		got := *frame.Request
		if got.Kind != req.Kind || got.ClOrdID != req.ClOrdID || got.NewClOrdID != req.NewClOrdID ||
			got.Price != req.Price || got.Qty != req.Qty || got.SecurityID != req.SecurityID {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
		}
	}
}

func TestILinkExecAckRoundTrip(t *testing.T) {
	ack := ExecAck{ClOrdID: 7, Price: 100, Qty: 3, SecurityID: 9, Exec: exchange.ExecFilled}
	frame, _, err := DecodeFrame(AppendExecAck(nil, ack))
	if err != nil {
		t.Fatal(err)
	}
	if frame.Ack == nil || *frame.Ack != ack {
		t.Fatalf("round trip: %+v", frame.Ack)
	}
}

func TestILinkStreamFraming(t *testing.T) {
	// Two frames back to back must decode sequentially.
	var buf []byte
	buf = AppendRequest(buf, exchange.Request{Kind: exchange.ReqNew, ClOrdID: 1, Side: lob.Bid, Price: 1, Qty: 1})
	buf = AppendRequest(buf, exchange.Request{Kind: exchange.ReqCancel, ClOrdID: 1})
	f1, n1, err := DecodeFrame(buf)
	if err != nil || f1.Request.Kind != exchange.ReqNew {
		t.Fatalf("first: %v %+v", err, f1)
	}
	f2, n2, err := DecodeFrame(buf[n1:])
	if err != nil || f2.Request.Kind != exchange.ReqCancel {
		t.Fatalf("second: %v %+v", err, f2)
	}
	if n1+n2 != len(buf) {
		t.Fatalf("consumed %d of %d", n1+n2, len(buf))
	}
}

func TestILinkErrors(t *testing.T) {
	if _, _, err := DecodeFrame([]byte{1}); err != ErrILinkShort {
		t.Fatalf("short: %v", err)
	}
	buf := AppendRequest(nil, exchange.Request{Kind: exchange.ReqCancel, ClOrdID: 1})
	if _, _, err := DecodeFrame(buf[:len(buf)-2]); err != ErrILinkShort {
		t.Fatalf("truncated: %v", err)
	}
	bad := append([]byte(nil), buf...)
	bad[2] = 0
	if _, _, err := DecodeFrame(bad); err == nil {
		t.Fatal("bad encoding accepted")
	}
	bad = append([]byte(nil), buf...)
	bad[4] = 0xff
	if _, _, err := DecodeFrame(bad); err == nil {
		t.Fatal("bad template accepted")
	}
}

// TestQuickILinkRoundTrip fuzzes new-order frames.
func TestQuickILinkRoundTrip(t *testing.T) {
	f := func(clOrdID uint64, price int64, secID int32, qty uint32, buy, market bool) bool {
		req := exchange.Request{Kind: exchange.ReqNew, ClOrdID: clOrdID, Price: price,
			SecurityID: secID, Qty: int64(qty)}
		if buy {
			req.Side = lob.Bid
		} else {
			req.Side = lob.Ask
		}
		if market {
			req.Type = exchange.Market
		}
		frame, _, err := DecodeFrame(AppendRequest(nil, req))
		return err == nil && frame.Request != nil && reflect.DeepEqual(*frame.Request, req)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkILinkDecode(b *testing.B) {
	buf := AppendRequest(nil, exchange.Request{Kind: exchange.ReqNew, ClOrdID: 1,
		Side: lob.Bid, Price: 450025, Qty: 3, SecurityID: 7})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeFrameIntoZeroAlloc: decoding a stream's frames into the two
// values a reader owns allocates nothing, for every business template, and
// a short buffer — the read-more answer a streaming reader meets at every
// read boundary — allocates nothing either.
func TestDecodeFrameIntoZeroAlloc(t *testing.T) {
	var stream []byte
	stream = AppendRequest(stream, exchange.Request{Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: 1,
		Side: lob.Bid, Price: 100, Qty: 2})
	stream = AppendRequest(stream, exchange.Request{Kind: exchange.ReqCancel, SecurityID: 7, ClOrdID: 1})
	stream = AppendRequest(stream, exchange.Request{Kind: exchange.ReqReplace, SecurityID: 7, ClOrdID: 1,
		NewClOrdID: 2, Price: 101, Qty: 3})
	stream = AppendExecAck(stream, ExecAck{ClOrdID: 2, Price: 101, Qty: 3, SecurityID: 7, Exec: exchange.ExecFilled})
	var req exchange.Request
	var ack ExecAck
	frames := 0
	if n := testing.AllocsPerRun(100, func() {
		frames = 0
		for buf := stream; ; frames++ {
			_, used, err := DecodeFrameInto(buf, &req, &ack)
			if err == ErrILinkShort {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			buf = buf[used:]
		}
	}); n != 0 {
		t.Fatalf("%v allocs per stream of %d frames, want 0", n, frames)
	}
	if frames != 4 {
		t.Fatalf("decoded %d frames of 4", frames)
	}
}
