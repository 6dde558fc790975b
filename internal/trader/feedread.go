package trader

import "net"

// feedBatch is the most datagrams one feed read returns.
const feedBatch = 32

// feedDatagramMax is the largest datagram a feed read holds whole: 64 KiB,
// above any UDP payload over IPv4 or IPv6.
const feedDatagramMax = 64 << 10

// feedReader is ServeFeed's source of datagrams, chosen once per pump.
type feedReader interface {
	// read blocks for the next one or more datagrams, oldest first. They
	// alias the reader's storage and are valid until the next read.
	read() ([][]byte, error)
	// close releases the reader's storage; the conn stays open.
	close()
}

// newFeedReader picks conn's reader: a *net.UDPConn gets its OS's UDP
// reader (a recvmmsg batch on Linux, feedread_linux.go), any other
// PacketConn one ReadFrom per datagram.
func newFeedReader(conn net.PacketConn) (feedReader, error) {
	if uc, ok := conn.(*net.UDPConn); ok {
		return newUDPReader(uc)
	}
	return newDatagramReader(func(b []byte) (int, error) {
		n, _, err := conn.ReadFrom(b)
		return n, err
	}), nil
}

// datagramReader reads one datagram per call: a batch of one.
type datagramReader struct {
	readOne func([]byte) (int, error)
	buf     []byte
	batch   [1][]byte
}

func newDatagramReader(readOne func([]byte) (int, error)) *datagramReader {
	return &datagramReader{readOne: readOne, buf: make([]byte, feedDatagramMax)}
}

func (r *datagramReader) read() ([][]byte, error) {
	n, err := r.readOne(r.buf)
	if err != nil {
		return nil, err
	}
	r.batch[0] = r.buf[:n]
	return r.batch[:], nil
}

func (r *datagramReader) close() {}
