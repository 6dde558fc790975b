package orderentry

import (
	"testing"

	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
)

// FuzzDecodeFrame exercises the iLink business-frame decoder.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendRequest(nil, exchange.Request{
		Kind: exchange.ReqNew, SecurityID: 7, ClOrdID: 1,
		Side: lob.Bid, Price: 100, Qty: 2,
	}))
	f.Add(AppendExecAck(nil, ExecAck{ClOrdID: 1}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, n, err := DecodeFrame(data)
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
