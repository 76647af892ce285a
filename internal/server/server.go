package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/spf"
)

// Config tunes a Server. The zero value of every field selects the noted
// default.
type Config struct {
	// Workers bounds concurrent request execution (default 128). Reads
	// and writes beyond the bound queue at the worker pool; a request
	// whose wait exceeds the deadline is answered StatusTimeout without
	// ever touching the engine.
	Workers int
	// RequestTimeout is the per-request budget, measured from the moment
	// the frame is fully read: it bounds the worker-pool wait and the
	// response write (default 5s; negative disables deadlines).
	RequestTimeout time.Duration
	// MaxFrame caps request frames (default DefaultMaxFrame). An
	// over-limit length prefix is answered StatusBadRequest and the
	// connection closed — the stream cannot be resynchronized.
	MaxFrame int
	// MaxScanEntries caps SCAN responses (default 1024); a request asking
	// for more is silently truncated to the cap.
	MaxScanEntries int
	// Registry receives the server's request metrics and the engine
	// snapshot collector. Nil creates a private registry (see Registry).
	Registry *metrics.Registry
	// TestHookHandle, when set, runs inside the worker slot before each
	// request executes. Test instrumentation only: it lets the suite hold
	// the pool's workers busy to force deterministic deadline expiry.
	TestHookHandle func(op uint8)
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 128
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.MaxScanEntries == 0 {
		c.MaxScanEntries = 1024
	}
	return c
}

// Server serves the wire protocol over one spf.DB. Create with New, start
// with Serve, stop with Shutdown. A Server is bound
// to its DB instance: after a Crash/Restart cycle produces a new *spf.DB,
// build a new Server around it.
type Server struct {
	db  *spf.DB
	cfg Config
	reg *metrics.Registry

	sem      chan struct{} // worker pool slots
	draining atomic.Bool

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	ixMu   sync.RWMutex
	ixs    map[string]*spf.Index
	connWG sync.WaitGroup

	// Per-op and per-status instruments, indexed by opcode/status so the
	// hot path never hashes a label set.
	reqTotal  [opMax + 1]*metrics.Counter
	reqSecs   [opMax + 1]*metrics.Histogram
	respTotal [statusMax + 1]*metrics.Counter
	connGauge *metrics.Gauge
	accepts   *metrics.Counter
	timeouts  *metrics.Counter
	badFrames *metrics.Counter
}

// New builds a Server over db. The registry (Config.Registry or a fresh
// one) is populated with the request instruments and an engine-snapshot
// collector, so /metrics and the STATS op render from one source.
func New(db *spf.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		db:    db,
		cfg:   cfg,
		reg:   reg,
		sem:   make(chan struct{}, cfg.Workers),
		conns: make(map[net.Conn]struct{}),
		ixs:   make(map[string]*spf.Index),
	}
	for op := uint8(1); op <= opMax; op++ {
		s.reqTotal[op] = reg.Counter("spf_server_requests_total",
			"Requests received, by operation.", "op", OpName(op))
		s.reqSecs[op] = reg.Histogram("spf_server_request_seconds",
			"Request latency from frame read to response write.", nil, "op", OpName(op))
	}
	for st := StatusOK; st <= statusMax; st++ {
		s.respTotal[st] = reg.Counter("spf_server_responses_total",
			"Responses sent, by status.", "status", st.String())
	}
	s.connGauge = reg.Gauge("spf_server_connections", "Open client connections.")
	s.accepts = reg.Counter("spf_server_accepts_total", "Connections accepted.")
	s.timeouts = reg.Counter("spf_server_deadline_expiries_total",
		"Requests answered StatusTimeout because the per-request deadline expired.")
	s.badFrames = reg.Counter("spf_server_malformed_frames_total",
		"Frames rejected as malformed or over-limit.")
	RegisterEngineCollector(reg, db)
	return s
}

// Registry returns the metrics registry backing /metrics and STATS.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Serve accepts connections on ln until Shutdown (which returns nil here)
// or a non-temporary accept error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.accepts.Inc()
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connGauge.Add(1)
		s.connWG.Add(1)
		go s.serveConn(c)
	}
}

// Shutdown drains the server: the listener closes, connections finish the
// request they are executing (a drained connection's next read fails
// immediately), and every connection goroutine is joined. After the
// timeout (zero = 5s) remaining connections are force-closed and an error
// returned.
func (s *Server) Shutdown(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		// Unblock idle readers; a connection mid-request finishes its
		// response first (writes use their own deadline) and then exits.
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.connWG.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		s.mu.Lock()
		n := len(s.conns)
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		// A goroutine stuck inside the engine (not on conn I/O) survives
		// the force close; bound the join rather than hanging the caller.
		select {
		case <-done:
		case <-time.After(timeout):
		}
		return fmt.Errorf("server: shutdown force-closed %d connection(s) after %v", n, timeout)
	}
}

// conn is the per-connection state: reused buffers keep the resident GET
// path allocation-free from socket to socket.
type conn struct {
	srv *Server
	c   net.Conn
	br  *bufio.Reader
	in  []byte // request frame buffer (reused)
	out []byte // response frame buffer (reused)
	val []byte // GetTo destination buffer (reused)
}

func (s *Server) serveConn(nc net.Conn) {
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		s.connGauge.Add(-1)
		s.connWG.Done()
	}()
	cn := &conn{
		srv: s,
		c:   nc,
		br:  bufio.NewReaderSize(nc, 16<<10),
		out: make([]byte, 0, 4<<10),
		val: make([]byte, 0, 1<<10),
	}
	for !s.draining.Load() {
		frame, buf, err := readFrame(cn.br, cn.in, s.cfg.MaxFrame)
		cn.in = buf
		if err != nil {
			// A structurally broken stream gets one last diagnostic
			// response; transport errors (EOF, reset, drain nudge) do not.
			if errors.Is(err, ErrMalformed) || errors.Is(err, ErrFrameTooLarge) {
				s.badFrames.Inc()
				cn.writeResponse(StatusBadRequest, []byte(err.Error()), time.Time{})
			}
			return
		}
		if !s.handleRequest(cn, frame) {
			return
		}
	}
}

// handleRequest executes one request end to end and reports whether the
// connection can keep being served.
func (s *Server) handleRequest(cn *conn, frame []byte) bool {
	start := time.Now()
	var deadline time.Time
	if s.cfg.RequestTimeout > 0 {
		deadline = start.Add(s.cfg.RequestTimeout)
	}
	op := frame[0]
	if op == 0 || op > opMax {
		s.badFrames.Inc()
		s.respTotal[StatusBadRequest].Inc()
		return cn.writeResponse(StatusBadRequest, []byte("unknown opcode"), deadline)
	}
	s.reqTotal[op].Inc()

	// Acquire a worker slot; the fast path is one channel send with no
	// timer allocation.
	select {
	case s.sem <- struct{}{}:
	default:
		if !s.acquireSlow(deadline) {
			s.timeouts.Inc()
			s.respTotal[StatusTimeout].Inc()
			return cn.writeResponse(StatusTimeout, []byte("server busy: deadline expired in worker queue"), deadline)
		}
	}
	if hook := s.cfg.TestHookHandle; hook != nil {
		hook(op)
	}
	status, body := s.dispatch(cn, op, frame[1:])
	<-s.sem

	ok := cn.writeResponse(status, body, deadline)
	s.respTotal[status].Inc()
	s.reqSecs[op].Observe(time.Since(start).Seconds())
	return ok
}

func (s *Server) acquireSlow(deadline time.Time) bool {
	if deadline.IsZero() {
		s.sem <- struct{}{}
		return true
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

// dispatch parses and executes one request. The returned body aliases
// connection-owned buffers; it is consumed by writeResponse before the
// next request reuses them.
func (s *Server) dispatch(cn *conn, op uint8, payload []byte) (Status, []byte) {
	req, reason := parseRequest(op, payload)
	if reason != "" {
		return StatusBadRequest, []byte(reason)
	}
	switch op {
	case OpPing:
		if err := s.db.Err(); err != nil {
			return statusOf(err), []byte(err.Error())
		}
		return StatusOK, nil
	case OpStats:
		return StatusOK, s.reg.Render()
	}

	ix := s.index(req.name)
	if ix == nil {
		return StatusBadRequest, []byte("unknown index")
	}
	key := req.key
	switch op {
	case OpGet:
		v, err := ix.GetTo(cn.val[:0], key)
		if err != nil {
			return statusOf(err), []byte(err.Error())
		}
		cn.val = v[:0] // retain grown capacity for the next request
		return StatusOK, v
	case OpPut:
		if err := s.put(ix, key, req.val); err != nil {
			return statusOf(err), []byte(err.Error())
		}
		return StatusOK, nil
	case OpDel:
		if err := s.del(ix, key); err != nil {
			return statusOf(err), []byte(err.Error())
		}
		return StatusOK, nil
	case OpScan:
		end := req.end
		limit := int(req.limit)
		if limit <= 0 || limit > s.cfg.MaxScanEntries {
			limit = s.cfg.MaxScanEntries
		}
		if len(end) == 0 {
			end = nil
		}
		body := cn.val[:0]
		body = appendU32(body, 0)
		count := 0
		err := ix.Scan(key, end, func(e spf.Entry) bool {
			body = appendU16(body, uint16(len(e.Key)))
			body = append(body, e.Key...)
			body = appendU32(body, uint32(len(e.Value)))
			body = append(body, e.Value...)
			count++
			return count < limit
		})
		if err != nil {
			return statusOf(err), []byte(err.Error())
		}
		appendU32(body[:0], uint32(count))
		cn.val = body[:0]
		return StatusOK, body
	}
	return StatusBadRequest, []byte("unknown opcode")
}

// put upserts key=val in its own transaction: update first, insert on a
// miss. OK is reported only after Commit proves durability — an acked
// write survives any crash the engine itself survives.
func (s *Server) put(ix *spf.Index, key, val []byte) error {
	tx := s.db.Begin()
	err := ix.Update(tx, key, val)
	if errors.Is(err, spf.ErrNotFound) {
		err = ix.Insert(tx, key, val)
	}
	if err != nil {
		_ = tx.Abort()
		return err
	}
	return s.db.Commit(tx)
}

func (s *Server) del(ix *spf.Index, key []byte) error {
	tx := s.db.Begin()
	if err := ix.Delete(tx, key); err != nil {
		_ = tx.Abort()
		return err
	}
	return s.db.Commit(tx)
}

// index resolves an index name through the server's cache; the fast path
// is one read-locked map probe with no allocation (string(name) in a map
// index does not copy).
func (s *Server) index(name []byte) *spf.Index {
	s.ixMu.RLock()
	ix := s.ixs[string(name)]
	s.ixMu.RUnlock()
	if ix != nil {
		return ix
	}
	ix, err := s.db.Index(string(name))
	if err != nil {
		return nil
	}
	s.ixMu.Lock()
	s.ixs[string(name)] = ix
	s.ixMu.Unlock()
	return ix
}

// writeResponse frames status+body and writes it under the request's
// deadline. Reports whether the connection remains usable.
func (cn *conn) writeResponse(status Status, body []byte, deadline time.Time) bool {
	out := beginFrame(cn.out[:0])
	out = append(out, uint8(status))
	out = append(out, body...)
	out = finishFrame(out)
	cn.out = out[:0]
	if !deadline.IsZero() {
		// The response write gets a minimum grace window even when the
		// request burned its whole budget queueing — a StatusTimeout answer
		// written under an already-expired deadline would never arrive.
		if min := time.Now().Add(time.Second); deadline.Before(min) {
			deadline = min
		}
		cn.c.SetWriteDeadline(deadline)
	}
	_, err := cn.c.Write(out)
	return err == nil
}

// statusOf maps an engine error to its wire status via the spf error
// taxonomy — errors.Is on exported sentinels, never string matching.
func statusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, spf.ErrNotFound):
		return StatusNotFound
	case errors.Is(err, spf.ErrKeyExists):
		return StatusExists
	case errors.Is(err, spf.ErrCommitLost):
		return StatusCommitLost
	case errors.Is(err, spf.ErrCrashed):
		return StatusCrashed
	case errors.Is(err, spf.ErrClosed):
		return StatusClosed
	case errors.Is(err, spf.ErrUnknownIndex):
		return StatusBadRequest
	case errors.Is(err, spf.ErrDetected), errors.Is(err, spf.ErrPageFailed):
		return StatusCorrupt
	default:
		return StatusErr
	}
}
