package sbe

import "testing"

// FuzzDecodePacket exercises the packet parser with arbitrary bytes: it
// must never panic and must reject anything that does not re-encode.
func FuzzDecodePacket(f *testing.F) {
	f.Add(AppendPacket(nil, 7, 99, []Message{
		{Incremental: &IncrementalRefresh{TransactTime: 1,
			Entries: []BookEntry{{Price: 10, Qty: 1, Level: 1}}}},
		{Trade: &TradeSummary{Price: 10, Qty: 1}},
	}))
	f.Add([]byte{})
	f.Add(make([]byte, PacketHeaderLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := DecodePacket(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same messages.
		re := AppendPacket(nil, pkt.SeqNum, pkt.SendingTime, pkt.Messages)
		pkt2, err := DecodePacket(re)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if len(pkt2.Messages) != len(pkt.Messages) {
			t.Fatalf("message count changed: %d vs %d", len(pkt2.Messages), len(pkt.Messages))
		}
	})
}
