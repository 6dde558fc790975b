package trader

import (
	"net"
	"os"
	"syscall"
	"unsafe"
)

// mmsghdr is recvmmsg(2)'s struct mmsghdr: one message's header and the
// number of bytes the kernel received into it.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// batchReader drains a UDP socket with recvmmsg(2): each read takes every
// datagram already queued, up to feedBatch, in one system call, and parks on
// the netpoller only when there is none. It waits through the conn's
// RawConn, so the conn's read deadline bounds the wait exactly as it bounds
// Read.
//
// Each datagram lands in its own feedDatagramMax slot of an anonymous
// mapping rather than the Go heap: the kernel makes resident only the pages
// datagrams write — the first of each slot at market-data sizes, feedBatch
// pages in all — where a heap arena would be zeroed whole for every pump.
type batchReader struct {
	rc    syscall.RawConn
	arena []byte // feedBatch slots of feedDatagramMax bytes
	iov   [feedBatch]syscall.Iovec
	hdrs  [feedBatch]mmsghdr
	batch [feedBatch][]byte
	// recv is recvmmsg as a method value, made once: RawConn.Read takes a
	// func, and a fresh closure per read would be an allocation per batch.
	recv  func(fd uintptr) bool
	n     int
	errno syscall.Errno
}

func newUDPReader(uc *net.UDPConn) (feedReader, error) {
	rc, err := uc.SyscallConn()
	if err != nil {
		return nil, err
	}
	arena, err := syscall.Mmap(-1, 0, feedBatch*feedDatagramMax,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, os.NewSyscallError("mmap", err)
	}
	// Where transparent huge pages are always on, the first datagram would
	// fault in the whole 2 MiB mapping as one page. The advice fails only on
	// a kernel without them, which has nothing to undo.
	_ = syscall.Madvise(arena, syscall.MADV_NOHUGEPAGE)
	r := &batchReader{rc: rc, arena: arena}
	for i := range r.hdrs {
		r.iov[i].Base = &arena[i*feedDatagramMax]
		r.iov[i].SetLen(feedDatagramMax)
		r.hdrs[i].hdr.Iov = &r.iov[i]
		r.hdrs[i].hdr.Iovlen = 1
	}
	r.recv = r.recvmmsg
	return r, nil
}

// recvmmsg is the RawConn read function: true once it has datagrams or a
// hard error, false on EAGAIN, which parks the caller until the socket is
// readable or the deadline passes.
func (r *batchReader) recvmmsg(fd uintptr) bool {
	for {
		n, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&r.hdrs[0])), feedBatch, syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case 0:
			r.n, r.errno = int(n), 0
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			r.n, r.errno = 0, errno
			return true
		}
	}
}

func (r *batchReader) read() ([][]byte, error) {
	if err := r.rc.Read(r.recv); err != nil {
		return nil, err
	}
	if r.errno != 0 {
		return nil, os.NewSyscallError("recvmmsg", r.errno)
	}
	for i := 0; i < r.n; i++ {
		n := int(r.hdrs[i].n)
		if r.hdrs[i].hdr.Flags&syscall.MSG_TRUNC != 0 {
			n = 0 // longer than a slot: passed on empty, so it is counted undecodable
		}
		slot := i * feedDatagramMax
		r.batch[i] = r.arena[slot : slot+n]
	}
	return r.batch[:r.n], nil
}

func (r *batchReader) close() {
	_ = syscall.Munmap(r.arena) // fails only for a range this reader did not map
}
