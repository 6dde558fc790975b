// Package mdclient implements the subscriber side of the market-data feed:
// arbitration of the redundant A/B UDP channels a real venue publishes,
// duplicate suppression, sequence-gap detection with bounded reordering,
// and snapshot-based recovery — the machinery between the paper's
// "Ethernet/UDP module" and its packet parser that makes the local book
// trustworthy on a lossy feed.
package mdclient

import (
	"errors"
	"fmt"
	"sort"

	"lighttrader/internal/sbe"
)

// Stats counts arbitration events since construction.
type Stats struct {
	Delivered  int // packets handed to the consumer, in order
	Duplicates int // suppressed A/B duplicates and replays
	Buffered   int // out-of-order packets parked for reordering
	Gaps       int // unrecoverable gaps that triggered recovery
	Recoveries int // snapshot recoveries completed
}

// Arbiter merges redundant datagram streams into one in-order packet
// stream. It is not safe for concurrent use; callers funnel both feeds
// into one goroutine (as the FPGA's single ingress pipeline does).
//
// The arbiter owns all decode storage: the Packet passed to deliver is
// valid only until deliver returns. Consumers that retain packets past the
// callback (queueing runtimes) must copy them (sbe.PacketBuffer.CopyPacket).
// In exchange the steady-state in-order path performs zero heap
// allocations per datagram.
type Arbiter struct {
	deliver func(sbe.Packet)

	nextSeq    uint32
	synced     bool
	recovering bool

	// live is the decode target for the common in-order path; its contents
	// are overwritten by every datagram.
	live sbe.PacketBuffer
	// pending parks packets ahead of the expected sequence, keyed by seq.
	// Each parked packet owns its storage (a buffer from the freelist), so
	// it survives however many live decodes happen before its hole fills.
	pending map[uint32]*parkedPacket
	// free recycles parked-packet buffers; it never exceeds maxPending.
	free []*parkedPacket
	// maxPending bounds the reorder buffer; exceeding it declares a gap.
	maxPending int

	stats Stats
}

// parkedPacket is one out-of-order packet with its own backing storage.
type parkedPacket struct {
	pb  sbe.PacketBuffer
	pkt sbe.Packet
}

// ErrBadDatagram wraps datagram decode failures.
var ErrBadDatagram = errors.New("mdclient: bad datagram")

// New builds an arbiter delivering in-order packets to the consumer.
// maxPending ≤ 0 selects the default reorder window of 16 packets.
func New(deliver func(sbe.Packet), maxPending int) *Arbiter {
	if deliver == nil {
		panic("mdclient: nil deliver")
	}
	if maxPending <= 0 {
		maxPending = 16
	}
	return &Arbiter{
		deliver:    deliver,
		pending:    make(map[uint32]*parkedPacket),
		maxPending: maxPending,
	}
}

// getParked pops a recycled parked-packet buffer or makes a new one.
func (a *Arbiter) getParked() *parkedPacket {
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free = a.free[:n-1]
		return p
	}
	return &parkedPacket{}
}

// putParked returns a parked packet's storage to the freelist.
func (a *Arbiter) putParked(p *parkedPacket) {
	p.pkt = sbe.Packet{}
	a.free = append(a.free, p)
}

// Stats returns arbitration counters.
func (a *Arbiter) Stats() Stats { return a.stats }

// Recovering reports whether the arbiter has declared a gap and is waiting
// for a snapshot.
func (a *Arbiter) Recovering() bool { return a.recovering }

// OnDatagram ingests one datagram from either feed. buf is not retained.
func (a *Arbiter) OnDatagram(buf []byte) error {
	pkt, err := sbe.DecodePacketInto(buf, &a.live)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadDatagram, err)
	}
	a.onPacket(pkt, buf)
	return nil
}

// park re-decodes buf into owned storage and indexes it by sequence, so the
// parked packet survives the live buffer's reuse.
func (a *Arbiter) park(seq uint32, buf []byte) {
	p := a.getParked()
	p.pkt, _ = sbe.DecodePacketInto(buf, &p.pb) // buf already decoded once; cannot fail
	a.pending[seq] = p
	a.stats.Buffered++
}

// onPacket applies arbitration rules to a decoded packet. buf is the raw
// datagram, needed when the packet must be parked into owned storage.
func (a *Arbiter) onPacket(pkt sbe.Packet, buf []byte) {
	// A snapshot resynchronises regardless of state: expected sequence
	// becomes the snapshot's LastMsgSeqNum+1 — or one past the snapshot's
	// own sequence number when that is higher, since the venue's snapshot
	// consumes a slot on the same channel it summarises (waiting for the
	// snapshot's own seq again would strand the stream one packet ahead
	// until the next periodic refresh).
	if snap := findSnapshot(pkt); snap != nil {
		if a.recovering || !a.synced {
			a.synced = true
			if a.recovering {
				a.recovering = false
				a.stats.Recoveries++
			}
			a.nextSeq = resyncSeq(snap, pkt)
			a.stats.Delivered++
			a.deliver(pkt)
			a.drainPending()
			return
		}
		// Periodic snapshot while synced: deliver if it is the next expected
		// packet; resync from it when it proves we missed data (its
		// LastMsgSeqNum covers sequences we never delivered — the tail-loss
		// case where too few packets follow the hole to overflow the reorder
		// window and declare a gap). Older snapshots are duplicate refreshes.
		if pkt.SeqNum == a.nextSeq {
			a.nextSeq++
			a.stats.Delivered++
			a.deliver(pkt)
			a.drainPending()
			return
		}
		if snap.LastMsgSeqNum+1 > a.nextSeq {
			a.nextSeq = resyncSeq(snap, pkt)
			a.stats.Recoveries++
			a.stats.Delivered++
			a.deliver(pkt)
			a.drainPending()
			return
		}
		a.stats.Duplicates++
		return
	}

	if !a.synced {
		// First incremental packet defines the stream origin.
		a.synced = true
		a.nextSeq = pkt.SeqNum
	}
	switch {
	case pkt.SeqNum < a.nextSeq:
		a.stats.Duplicates++ // A/B duplicate or replay
	case pkt.SeqNum == a.nextSeq:
		a.nextSeq++
		a.stats.Delivered++
		a.deliver(pkt)
		a.drainPending()
	default: // ahead: park for reordering
		if _, dup := a.pending[pkt.SeqNum]; dup {
			a.stats.Duplicates++
			return
		}
		if a.recovering {
			// Buffer while waiting for the snapshot, bounded.
			if len(a.pending) < a.maxPending {
				a.park(pkt.SeqNum, buf)
			}
			return
		}
		a.park(pkt.SeqNum, buf)
		if len(a.pending) >= a.maxPending {
			// The missing packet is not coming: declare a gap and wait
			// for snapshot recovery.
			a.recovering = true
			a.stats.Gaps++
		}
	}
}

// drainPending delivers consecutively buffered packets, recycling their
// storage as each is handed off.
func (a *Arbiter) drainPending() {
	for {
		p, ok := a.pending[a.nextSeq]
		if !ok {
			break
		}
		delete(a.pending, a.nextSeq)
		a.nextSeq++
		a.stats.Delivered++
		a.deliver(p.pkt)
		a.putParked(p)
	}
	// Drop stale entries below the watermark (superseded by recovery).
	if len(a.pending) > 0 {
		var stale []uint32
		for seq := range a.pending {
			if seq < a.nextSeq {
				stale = append(stale, seq)
			}
		}
		sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
		for _, seq := range stale {
			a.putParked(a.pending[seq])
			delete(a.pending, seq)
			a.stats.Duplicates++
		}
	}
}

// resyncSeq is the next expected sequence after accepting a recovery
// snapshot. Venues differ in where snapshots live: on a dedicated channel
// (disjoint numbering — CME-style), the stream resumes at LastMsgSeqNum+1;
// when the snapshot rides the incremental channel itself (our exchange
// engine), it consumes exactly the LastMsgSeqNum+1 slot, and waiting for
// that sequence again would strand the stream one packet ahead until the
// next periodic refresh. The packet's own header tells the two apart.
func resyncSeq(snap *sbe.SnapshotFullRefresh, pkt sbe.Packet) uint32 {
	if pkt.SeqNum == snap.LastMsgSeqNum+1 {
		return pkt.SeqNum + 1
	}
	return snap.LastMsgSeqNum + 1
}

// findSnapshot returns the packet's snapshot message, if any.
func findSnapshot(pkt sbe.Packet) *sbe.SnapshotFullRefresh {
	for _, m := range pkt.Messages {
		if m.Snapshot != nil {
			return m.Snapshot
		}
	}
	return nil
}
