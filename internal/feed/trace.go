package feed

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"lighttrader/internal/lob"
)

// Tick is one market-data event as seen by the HFT system: the encoded
// datagram (for the functional packet-parsing path) plus the post-event book
// snapshot (for the simulation fast path, mirroring the paper's profiled
// replay).
type Tick struct {
	TimeNanos int64
	Packet    []byte
	Snapshot  lob.Snapshot
}

// Binary trace file format:
//
//	header : magic "LTTR" | version uint16 | symbolLen uint16 | symbol | count uint32
//	record : timeNanos int64 | seq uint64 | lastTrade int64
//	         | 10×(bidPrice int64, bidQty int64, bidOrders int64)
//	         | 10×(askPrice int64, askQty int64, askOrders int64)
//	         | packetLen uint32 | packet bytes
//
// All integers little-endian.

var traceMagic = [4]byte{'L', 'T', 'T', 'R'}

const traceVersion = 1

// Trace decode errors.
var (
	ErrBadTrace = errors.New("feed: malformed trace file")
)

// WriteTrace serialises ticks to w.
func WriteTrace(w io.Writer, symbol string, ticks []Tick) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint16(hdr[0:], traceVersion)
	binary.LittleEndian.PutUint16(hdr[2:], uint16(len(symbol)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(ticks)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.WriteString(symbol); err != nil {
		return err
	}
	var rec [24 + 60*8]byte
	for i := range ticks {
		t := &ticks[i]
		binary.LittleEndian.PutUint64(rec[0:], uint64(t.TimeNanos))
		binary.LittleEndian.PutUint64(rec[8:], t.Snapshot.Seq)
		binary.LittleEndian.PutUint64(rec[16:], uint64(t.Snapshot.LastTrade))
		off := 24
		for l := 0; l < lob.DepthLevels; l++ {
			binary.LittleEndian.PutUint64(rec[off:], uint64(t.Snapshot.Bids[l].Price))
			binary.LittleEndian.PutUint64(rec[off+8:], uint64(t.Snapshot.Bids[l].Qty))
			binary.LittleEndian.PutUint64(rec[off+16:], uint64(t.Snapshot.Bids[l].Orders))
			off += 24
		}
		for l := 0; l < lob.DepthLevels; l++ {
			binary.LittleEndian.PutUint64(rec[off:], uint64(t.Snapshot.Asks[l].Price))
			binary.LittleEndian.PutUint64(rec[off+8:], uint64(t.Snapshot.Asks[l].Qty))
			binary.LittleEndian.PutUint64(rec[off+16:], uint64(t.Snapshot.Asks[l].Orders))
			off += 24
		}
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
		var plen [4]byte
		binary.LittleEndian.PutUint32(plen[:], uint32(len(t.Packet)))
		if _, err := bw.Write(plen[:]); err != nil {
			return err
		}
		if _, err := bw.Write(t.Packet); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace deserialises a trace written by WriteTrace.
func ReadTrace(r io.Reader) (symbol string, ticks []Tick, err error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if magic != traceMagic {
		return "", nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if v := binary.LittleEndian.Uint16(hdr[0:]); v != traceVersion {
		return "", nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, v)
	}
	symLen := int(binary.LittleEndian.Uint16(hdr[2:]))
	count := int(binary.LittleEndian.Uint32(hdr[4:]))
	sym := make([]byte, symLen)
	if _, err := io.ReadFull(br, sym); err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	symbol = string(sym)
	ticks = make([]Tick, 0, count)
	var rec [24 + 60*8]byte
	for i := 0; i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return "", nil, fmt.Errorf("%w: record %d: %v", ErrBadTrace, i, err)
		}
		var t Tick
		t.TimeNanos = int64(binary.LittleEndian.Uint64(rec[0:]))
		t.Snapshot.Symbol = symbol
		t.Snapshot.TimeNanos = t.TimeNanos
		t.Snapshot.Seq = binary.LittleEndian.Uint64(rec[8:])
		t.Snapshot.LastTrade = int64(binary.LittleEndian.Uint64(rec[16:]))
		off := 24
		for l := 0; l < lob.DepthLevels; l++ {
			t.Snapshot.Bids[l].Price = int64(binary.LittleEndian.Uint64(rec[off:]))
			t.Snapshot.Bids[l].Qty = int64(binary.LittleEndian.Uint64(rec[off+8:]))
			t.Snapshot.Bids[l].Orders = int(binary.LittleEndian.Uint64(rec[off+16:]))
			off += 24
		}
		for l := 0; l < lob.DepthLevels; l++ {
			t.Snapshot.Asks[l].Price = int64(binary.LittleEndian.Uint64(rec[off:]))
			t.Snapshot.Asks[l].Qty = int64(binary.LittleEndian.Uint64(rec[off+8:]))
			t.Snapshot.Asks[l].Orders = int(binary.LittleEndian.Uint64(rec[off+16:]))
			off += 24
		}
		var plen [4]byte
		if _, err := io.ReadFull(br, plen[:]); err != nil {
			return "", nil, fmt.Errorf("%w: record %d: %v", ErrBadTrace, i, err)
		}
		n := binary.LittleEndian.Uint32(plen[:])
		if n > 1<<20 {
			return "", nil, fmt.Errorf("%w: record %d packet length %d", ErrBadTrace, i, n)
		}
		if n > 0 {
			t.Packet = make([]byte, n)
			if _, err := io.ReadFull(br, t.Packet); err != nil {
				return "", nil, fmt.Errorf("%w: record %d: %v", ErrBadTrace, i, err)
			}
		}
		ticks = append(ticks, t)
	}
	return symbol, ticks, nil
}

// Stats summarises the arrival pattern of a tick stream.
type Stats struct {
	Count        int
	DurationSecs float64
	MeanRate     float64 // events/s
	MinGapNanos  int64
	P50GapNanos  int64
	P99GapNanos  int64
	MaxGapNanos  int64
	// CV2 is the squared coefficient of variation of inter-arrival times;
	// 1 for Poisson, ≫1 for bursty traffic.
	CV2 float64
}

// ComputeStats derives arrival statistics from a tick stream.
func ComputeStats(ticks []Tick) Stats {
	var s Stats
	s.Count = len(ticks)
	if len(ticks) < 2 {
		return s
	}
	gaps := make([]int64, 0, len(ticks)-1)
	for i := 1; i < len(ticks); i++ {
		gaps = append(gaps, ticks[i].TimeNanos-ticks[i-1].TimeNanos)
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	s.MinGapNanos = gaps[0]
	s.MaxGapNanos = gaps[len(gaps)-1]
	s.P50GapNanos = gaps[len(gaps)/2]
	s.P99GapNanos = gaps[len(gaps)*99/100]
	var sum, sumSq float64
	for _, g := range gaps {
		sum += float64(g)
		sumSq += float64(g) * float64(g)
	}
	mean := sum / float64(len(gaps))
	variance := sumSq/float64(len(gaps)) - mean*mean
	if mean > 0 {
		s.CV2 = variance / (mean * mean)
	}
	s.DurationSecs = float64(ticks[len(ticks)-1].TimeNanos-ticks[0].TimeNanos) / 1e9
	if s.DurationSecs > 0 {
		s.MeanRate = float64(len(ticks)-1) / s.DurationSecs
	}
	if math.IsNaN(s.CV2) {
		s.CV2 = 0
	}
	return s
}
