package sbe

import "encoding/binary"

// Packet framing follows the MDP 3.0 binary packet header: each UDP datagram
// starts with a channel sequence number and sending time, followed by one or
// more size-prefixed SBE messages.
//
//	packet := seqNum uint32 | sendingTime uint64 | { msgSize uint16 | message } ...

// PacketHeaderLen is the fixed packet header size in bytes.
const PacketHeaderLen = 12

// msgSizeLen is the per-message size prefix.
const msgSizeLen = 2

// Packet is a decoded market-data datagram.
type Packet struct {
	SeqNum      uint32
	SendingTime uint64 // nanoseconds
	Messages    []Message
}

// encodedMessageLen is the exact wire size of a decoded message, excluding
// the per-message size prefix. Empty messages (no payload set) are zero.
func encodedMessageLen(m *Message) int {
	switch {
	case m.Incremental != nil:
		return messageHeaderLen + incrementalBlockLen + groupHeaderLen + bookEntryLen*len(m.Incremental.Entries)
	case m.Trade != nil:
		return messageHeaderLen + tradeBlockLen
	case m.Snapshot != nil:
		return messageHeaderLen + snapshotBlockLen + groupHeaderLen + snapshotEntryLen*len(m.Snapshot.Entries)
	}
	return 0
}

// AppendPacket appends one complete encoded datagram — header plus every
// non-empty message in msgs, size-framed — to dst and returns the extended
// slice. The destination grows by the packet's exact wire size at most
// once, so replay and publish loops that reuse dst (the matching engine's
// publisher) reach steady-state zero allocations.
func AppendPacket(dst []byte, seqNum uint32, sendingTime uint64, msgs []Message) []byte {
	total := PacketHeaderLen
	for i := range msgs {
		if n := encodedMessageLen(&msgs[i]); n > 0 {
			total += msgSizeLen + n
		}
	}
	if cap(dst)-len(dst) < total {
		grown := make([]byte, len(dst), len(dst)+total)
		copy(grown, dst)
		dst = grown
	}
	dst = binary.LittleEndian.AppendUint32(dst, seqNum)
	dst = binary.LittleEndian.AppendUint64(dst, sendingTime)
	for i := range msgs {
		m := &msgs[i]
		n := encodedMessageLen(m)
		if n == 0 {
			continue
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(n+msgSizeLen))
		switch {
		case m.Incremental != nil:
			dst = AppendIncremental(dst, m.Incremental)
		case m.Trade != nil:
			dst = AppendTrade(dst, m.Trade)
		case m.Snapshot != nil:
			dst = AppendSnapshot(dst, m.Snapshot)
		}
	}
	return dst
}

// DecodePacket parses a complete market-data datagram into storage of its
// own, for callers that keep the packet: DecodePacketInto with a fresh
// PacketBuffer.
func DecodePacket(buf []byte) (Packet, error) {
	var pb PacketBuffer
	return DecodePacketInto(buf, &pb)
}
