package orderentry

import (
	"fmt"
	"testing"

	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
)

// FuzzDecodeFrame exercises the iLink business-frame decoder, and holds
// DecodeFrame and DecodeFrameInto to the same answer on every input. The
// Into storage holds a different frame of each kind beforehand, so a field
// the parser fails to overwrite shows as a mismatch.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendRequest(nil, exchange.Request{
		Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: 1,
		Side: lob.Bid, Price: 100, Qty: 2,
	}))
	f.Add(AppendRequest(nil, exchange.Request{Kind: exchange.ReqCancel, SecurityID: 7, ClOrdID: 1}))
	f.Add(AppendRequest(nil, exchange.Request{
		Kind: exchange.ReqReplace, SecurityID: 7, ClOrdID: 1, NewClOrdID: 2, Price: 101, Qty: 3,
	}))
	f.Add(AppendExecAck(nil, ExecAck{ClOrdID: 1}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, n, err := DecodeFrame(data)
		req := exchange.Request{Kind: exchange.ReqReplace, SecurityID: -1, ClOrdID: ^uint64(0),
			NewClOrdID: ^uint64(0), Side: lob.Ask, Type: exchange.Market, Price: -1, Qty: -1}
		ack := ExecAck{ClOrdID: ^uint64(0), Price: -1, Qty: -1, SecurityID: -1, Exec: exchange.ExecRejected}
		into, intoN, intoErr := DecodeFrameInto(data, &req, &ack)
		if n != intoN || fmt.Sprint(err) != fmt.Sprint(intoErr) {
			t.Fatalf("DecodeFrame (%d, %v) vs DecodeFrameInto (%d, %v)", n, err, intoN, intoErr)
		}
		if (frame.Request == nil) != (into.Request == nil) || (frame.Ack == nil) != (into.Ack == nil) {
			t.Fatalf("frame kinds differ: %+v vs %+v", frame, into)
		}
		if frame.Request != nil && (into.Request != &req || *frame.Request != req) {
			t.Fatalf("request %+v vs %+v (into caller storage: %v)", *frame.Request, *into.Request, into.Request == &req)
		}
		if frame.Ack != nil && (into.Ack != &ack || *frame.Ack != ack) {
			t.Fatalf("ack %+v vs %+v (into caller storage: %v)", *frame.Ack, *into.Ack, into.Ack == &ack)
		}
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		if frame.Request == nil && frame.Ack == nil {
			t.Fatal("decoded frame with no payload")
		}
		if frame.Request != nil {
			// Round-trip must be stable.
			re := AppendRequest(nil, *frame.Request)
			f2, _, err := DecodeFrame(re)
			if err != nil || f2.Request == nil || *f2.Request != *frame.Request {
				t.Fatalf("round trip unstable: %+v vs %+v (%v)", f2.Request, frame.Request, err)
			}
		}
	})
}

// FuzzDecodeSessionFrame exercises the session-layer decoder.
func FuzzDecodeSessionFrame(f *testing.F) {
	f.Add(AppendNegotiate(nil, 1, 2))
	f.Add(AppendEstablish(nil, 1, 2, 500))
	f.Add(AppendSequence(nil, 1, 2))
	f.Add(AppendTerminate(nil, 1, TerminateProtocolError))
	// Corrupt-SOFH seeds: frameLen smaller than the headers it must carry.
	// {6,0,0xFE,0xCA,...} is the remote-triggerable panic reproducer.
	f.Add(append([]byte{6, 0, 0xFE, 0xCA}, make([]byte, 12)...))
	f.Add(append([]byte{0, 0, 0xFE, 0xCA}, make([]byte, 12)...))
	f.Add(append([]byte{5, 0, 0xFE, 0xCA}, make([]byte, 4)...))
	f.Add([]byte{7, 0, 0xFE, 0xCA, 0xF4, 0x01, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, n, err := DecodeSessionFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		if frame.Template == 0 {
			t.Fatal("decoded session frame with zero template")
		}
	})
}
