//go:build linux

package restore

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// clockMonotonic is CLOCK_MONOTONIC, the clock a parker's timer runs on.
const clockMonotonic = 1

// parker sleeps a worker on its own non-blocking timerfd, registered with
// the runtime's netpoller through os.NewFile. A timer the runtime owns
// would not help: it expires before the scheduler next looks for work, so
// the worker is runnable again and the network is still not polled. A
// timerfd wakes the worker only through a netpoll, and the same poll
// readies every goroutine whose socket has data.
type parker struct {
	rc    syscall.RawConn // nil when the timerfd could not be made
	f     *os.File
	d     time.Duration // this park's length
	armed bool
	err   error
	buf   [8]byte
}

func newParker() *parker {
	p := &parker{}
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return p
	}
	p.f = os.NewFile(fd, "restore-park")
	rc, err := p.f.SyscallConn()
	if err != nil {
		_ = p.f.Close()
		return &parker{}
	}
	p.rc = rc
	return p
}

// step is the RawConn read callback. Its first call arms the timer and
// asks to wait: arming after RawConn.Read has reset the descriptor's
// readiness means no expiry can be discarded, and the wait always goes
// through the netpoller, even when the timer fires before the worker
// parks. Later calls consume the expiry.
func (p *parker) step(fd uintptr) bool {
	if !p.armed {
		p.armed = true
		// struct itimerspec: it_interval zero (one shot), then it_value.
		spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(p.d))}
		_, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		if errno != 0 {
			p.err = errno
			return true
		}
		return false
	}
	_, err := syscall.Read(int(fd), p.buf[:])
	if err == syscall.EAGAIN {
		return false
	}
	p.err = err
	return true
}

// park blocks the calling goroutine in the netpoller for d, reporting
// false when it could not.
func (p *parker) park(d time.Duration) bool {
	if p.rc == nil {
		return false
	}
	p.d, p.armed, p.err = d, false, nil
	if err := p.rc.Read(p.step); err != nil {
		return false
	}
	return p.err == nil
}

// close releases the timerfd.
func (p *parker) close() {
	if p.f != nil {
		_ = p.f.Close()
	}
}
