// Package orderentry implements the order-entry protocol of the paper's
// trading pipeline (§III-A) as a CME iLink 3 style binary format, plus the
// FIXP-derived session layer it rides on. Requests are encoded by appending
// fixed-layout frames to a caller-owned buffer, mirroring the paper's
// template-in-SRAM design: only the variable fields are written per order.
package orderentry

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lighttrader/internal/exchange"
	"lighttrader/internal/lob"
)

// iLink 3 style binary order entry. Real iLink 3 is SBE over a Simple Open
// Framing Header; this subset keeps the framing header and fixed-layout
// little-endian bodies for the three order actions plus the business reject
// / execution ack, which is what the LightTrader trading engine emits.

// Simple Open Framing Header: messageLength uint16 | encodingType uint16.
const (
	sofhLen         = 4
	encodingTypeSBE = 0xCAFE
	ilinkHeaderLen  = 4 // templateID uint16 | schemaVersion uint16
	ilinkSchemaVer  = 3
	templateNew     = 514
	templateReplace = 515
	templateCancel  = 516
	templateExecAck = 522
	newOrderBodyLen = 8 + 8 + 4 + 8 + 1 + 1 + 2 // clOrdID, price, secID, qty, side, ordType, pad
	cancelBodyLen   = 8 + 4 + 4                 // clOrdID, secID, pad
	replaceBodyLen  = 8 + 8 + 8 + 4 + 8 + 4     // clOrdID, newClOrdID, price, secID, qty, pad
	execAckBodyLen  = 8 + 8 + 8 + 4 + 1 + 3     // clOrdID, price, qty, secID, execType, pad
	maxILinkBodyLen = 1 << 12
	ilinkOrdTypeMkt = 1
	ilinkOrdTypeLmt = 2
	ilinkSideBuy    = 1
	ilinkSideSell   = 2
)

// iLink decode errors. ErrILinkShort strictly means "the buffer does not
// yet hold the whole frame — read more and retry"; every self-inconsistent
// frame (SOFH length too small for its own header, or too small for the
// body its template requires) is ErrILinkMalformed so streaming callers
// drop the session instead of waiting forever for bytes that cannot come.
var (
	ErrILinkShort     = errors.New("orderentry: short iLink frame")
	ErrILinkEncoding  = errors.New("orderentry: unknown iLink encoding")
	ErrILinkTemplate  = errors.New("orderentry: unknown iLink template")
	ErrILinkMalformed = errors.New("orderentry: malformed iLink frame")
)

// ExecAck is the exchange's binary acknowledgement of an order action.
type ExecAck struct {
	ClOrdID    uint64
	Price      int64
	Qty        int64
	SecurityID int32
	Exec       exchange.ExecType
}

// AppendRequest encodes an exchange.Request as an iLink frame appended to
// dst. Market orders carry price 0.
func AppendRequest(dst []byte, req exchange.Request) []byte {
	switch req.Kind {
	case exchange.ReqNew:
		dst = appendSOFH(dst, ilinkHeaderLen+newOrderBodyLen)
		dst = appendILinkHeader(dst, templateNew)
		dst = binary.LittleEndian.AppendUint64(dst, req.ClOrdID)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(req.Price))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(req.SecurityID))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(req.Qty))
		dst = append(dst, ilinkSide(req.Side), ilinkOrdType(req.Type), 0, 0)
	case exchange.ReqCancel:
		dst = appendSOFH(dst, ilinkHeaderLen+cancelBodyLen)
		dst = appendILinkHeader(dst, templateCancel)
		dst = binary.LittleEndian.AppendUint64(dst, req.ClOrdID)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(req.SecurityID))
		dst = append(dst, 0, 0, 0, 0)
	case exchange.ReqReplace:
		dst = appendSOFH(dst, ilinkHeaderLen+replaceBodyLen)
		dst = appendILinkHeader(dst, templateReplace)
		dst = binary.LittleEndian.AppendUint64(dst, req.ClOrdID)
		dst = binary.LittleEndian.AppendUint64(dst, req.NewClOrdID)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(req.Price))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(req.SecurityID))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(req.Qty))
		dst = append(dst, 0, 0, 0, 0)
	}
	return dst
}

// AppendExecAck encodes an execution acknowledgement frame.
func AppendExecAck(dst []byte, ack ExecAck) []byte {
	dst = appendSOFH(dst, ilinkHeaderLen+execAckBodyLen)
	dst = appendILinkHeader(dst, templateExecAck)
	dst = binary.LittleEndian.AppendUint64(dst, ack.ClOrdID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ack.Price))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ack.Qty))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ack.SecurityID))
	dst = append(dst, byte(ack.Exec), 0, 0, 0)
	return dst
}

func appendSOFH(dst []byte, bodyLen int) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(sofhLen+bodyLen))
	dst = binary.LittleEndian.AppendUint16(dst, encodingTypeSBE)
	return dst
}

func appendILinkHeader(dst []byte, template uint16) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, template)
	dst = binary.LittleEndian.AppendUint16(dst, ilinkSchemaVer)
	return dst
}

func ilinkSide(s lob.Side) byte {
	if s == lob.Bid {
		return ilinkSideBuy
	}
	return ilinkSideSell
}

func ilinkOrdType(t exchange.OrderType) byte {
	if t == exchange.Market {
		return ilinkOrdTypeMkt
	}
	return ilinkOrdTypeLmt
}

// Frame is a decoded iLink frame: exactly one of Request/Ack is set.
type Frame struct {
	Request *exchange.Request
	Ack     *ExecAck
}

// DecodeFrame decodes one iLink frame from buf, returning the frame and
// bytes consumed. Callers streaming from TCP should retry with more data on
// ErrILinkShort. It is DecodeFrameInto over fresh storage: a caller that
// does not keep the frame pays no allocation once this wrapper inlines.
func DecodeFrame(buf []byte) (Frame, int, error) {
	return DecodeFrameInto(buf, new(exchange.Request), new(ExecAck))
}

// DecodeFrameInto is the iLink business-frame parser. It decodes one frame
// from buf into storage the caller owns — a request into *req, an ack into
// *ack, overwriting every field — and returns a Frame pointing at whichever
// it wrote, with the bytes consumed. The other is left untouched, as both
// are on error. Streaming readers decode every frame into the same two
// values and allocate nothing per frame.
func DecodeFrameInto(buf []byte, req *exchange.Request, ack *ExecAck) (Frame, int, error) {
	if len(buf) < sofhLen {
		return Frame{}, 0, ErrILinkShort
	}
	frameLen := int(binary.LittleEndian.Uint16(buf[0:]))
	if enc := binary.LittleEndian.Uint16(buf[2:]); enc != encodingTypeSBE {
		return Frame{}, 0, fmt.Errorf("%w: 0x%04x", ErrILinkEncoding, enc)
	}
	if frameLen < sofhLen+ilinkHeaderLen || frameLen > maxILinkBodyLen {
		return Frame{}, 0, fmt.Errorf("%w: frame length %d", ErrILinkMalformed, frameLen)
	}
	if len(buf) < frameLen {
		return Frame{}, 0, ErrILinkShort
	}
	template := binary.LittleEndian.Uint16(buf[sofhLen:])
	body := buf[sofhLen+ilinkHeaderLen : frameLen]
	switch template {
	case templateNew:
		if len(body) < newOrderBodyLen {
			return Frame{}, 0, fmt.Errorf("%w: new-order body %d", ErrILinkMalformed, len(body))
		}
		*req = exchange.Request{
			Kind:       exchange.ReqNew,
			ClOrdID:    binary.LittleEndian.Uint64(body[0:]),
			Price:      int64(binary.LittleEndian.Uint64(body[8:])),
			SecurityID: int32(binary.LittleEndian.Uint32(body[16:])),
			Qty:        int64(binary.LittleEndian.Uint64(body[20:])),
			Side:       lob.Ask,
		}
		if body[28] == ilinkSideBuy {
			req.Side = lob.Bid
		}
		if body[29] == ilinkOrdTypeMkt {
			req.Type = exchange.Market
		}
		return Frame{Request: req}, frameLen, nil
	case templateCancel:
		if len(body) < cancelBodyLen {
			return Frame{}, 0, fmt.Errorf("%w: cancel body %d", ErrILinkMalformed, len(body))
		}
		*req = exchange.Request{
			Kind:       exchange.ReqCancel,
			ClOrdID:    binary.LittleEndian.Uint64(body[0:]),
			SecurityID: int32(binary.LittleEndian.Uint32(body[8:])),
		}
		return Frame{Request: req}, frameLen, nil
	case templateReplace:
		if len(body) < replaceBodyLen {
			return Frame{}, 0, fmt.Errorf("%w: replace body %d", ErrILinkMalformed, len(body))
		}
		*req = exchange.Request{
			Kind:       exchange.ReqReplace,
			ClOrdID:    binary.LittleEndian.Uint64(body[0:]),
			NewClOrdID: binary.LittleEndian.Uint64(body[8:]),
			Price:      int64(binary.LittleEndian.Uint64(body[16:])),
			SecurityID: int32(binary.LittleEndian.Uint32(body[24:])),
			Qty:        int64(binary.LittleEndian.Uint64(body[28:])),
		}
		return Frame{Request: req}, frameLen, nil
	case templateExecAck:
		if len(body) < execAckBodyLen {
			return Frame{}, 0, fmt.Errorf("%w: exec-ack body %d", ErrILinkMalformed, len(body))
		}
		*ack = ExecAck{
			ClOrdID:    binary.LittleEndian.Uint64(body[0:]),
			Price:      int64(binary.LittleEndian.Uint64(body[8:])),
			Qty:        int64(binary.LittleEndian.Uint64(body[16:])),
			SecurityID: int32(binary.LittleEndian.Uint32(body[24:])),
			Exec:       exchange.ExecType(body[28]),
		}
		return Frame{Ack: ack}, frameLen, nil
	default:
		return Frame{}, 0, fmt.Errorf("%w: %d", ErrILinkTemplate, template)
	}
}
