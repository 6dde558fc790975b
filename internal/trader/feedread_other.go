//go:build !linux

package trader

import "net"

// newUDPReader reads a *net.UDPConn one datagram at a time with Read,
// which, unlike ReadFrom, does not allocate the source address.
func newUDPReader(uc *net.UDPConn) (feedReader, error) {
	return newDatagramReader(uc.Read), nil
}
