package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/spf"
)

func newTestDB(t testing.TB, opts spf.Options) *spf.DB {
	t.Helper()
	if opts.PageSize == 0 {
		opts = spf.Options{PageSize: 1024, DataSlots: 1 << 14, PoolFrames: 1024}
	}
	db, err := spf.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// startServer runs a server over db on a loopback port and returns its
// address plus a stop function that asserts a clean drain.
func startServer(t testing.TB, db *spf.DB, cfg Config) (*Server, string, func()) {
	t.Helper()
	s := New(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	stop := func() {
		if err := s.Shutdown(10 * time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
	return s, ln.Addr().String(), stop
}

func TestServerBasicOps(t *testing.T) {
	db := newTestDB(t, spf.Options{})
	defer db.Close()
	if _, err := db.CreateIndex("users"); err != nil {
		t.Fatal(err)
	}
	_, addr, stop := startServer(t, db, Config{})
	defer stop()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Miss, insert, read-back, overwrite, read-back, delete, miss.
	if v, st, err := cl.Get("users", []byte("k1")); err != nil || st != StatusNotFound || v != nil {
		t.Fatalf("miss: %q %v %v", v, st, err)
	}
	if st, err := cl.Put("users", []byte("k1"), []byte("v1")); err != nil || st != StatusOK {
		t.Fatalf("put: %v %v", st, err)
	}
	if v, st, err := cl.Get("users", []byte("k1")); err != nil || st != StatusOK || string(v) != "v1" {
		t.Fatalf("get: %q %v %v", v, st, err)
	}
	if st, err := cl.Put("users", []byte("k1"), []byte("v2")); err != nil || st != StatusOK {
		t.Fatalf("upsert: %v %v", st, err)
	}
	if v, _, err := cl.Get("users", []byte("k1")); err != nil || string(v) != "v2" {
		t.Fatalf("get after upsert: %q %v", v, err)
	}
	if st, err := cl.Del("users", []byte("k1")); err != nil || st != StatusOK {
		t.Fatalf("del: %v %v", st, err)
	}
	if _, st, err := cl.Get("users", []byte("k1")); err != nil || st != StatusNotFound {
		t.Fatalf("get after del: %v %v", st, err)
	}
	if st, err := cl.Del("users", []byte("k1")); err != nil || st != StatusNotFound {
		t.Fatalf("del miss: %v %v", st, err)
	}

	// Scan sees sorted committed entries and honors limit and end.
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("scan%03d", i))
		if _, err := cl.Put("users", k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	es, err := cl.Scan("users", []byte("scan000"), nil, 0)
	if err != nil || len(es) != 20 {
		t.Fatalf("scan all: %d entries, %v", len(es), err)
	}
	if string(es[0].Key) != "scan000" || string(es[19].Key) != "scan019" {
		t.Fatalf("scan order: %q .. %q", es[0].Key, es[19].Key)
	}
	if es, err = cl.Scan("users", []byte("scan005"), []byte("scan010"), 0); err != nil || len(es) != 5 {
		t.Fatalf("bounded scan: %d entries, %v", len(es), err)
	}
	if es, err = cl.Scan("users", []byte("scan000"), nil, 3); err != nil || len(es) != 3 {
		t.Fatalf("limited scan: %d entries, %v", len(es), err)
	}

	// Ping and Stats.
	if st, err := cl.Ping(); err != nil || st != StatusOK {
		t.Fatalf("ping: %v %v", st, err)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`spf_server_requests_total{op="get"}`,
		`spf_server_requests_total{op="put"}`,
		"spf_server_request_seconds_bucket",
		"spf_pages",
		`spf_index_splits_total{index="users"}`,
		"spf_txn_user_committed_total",
		"spf_archive_records_dropped_total",
		"spf_archive_undo_bytes_stripped_total",
	} {
		if !strings.Contains(string(stats), want) {
			t.Fatalf("stats missing %q", want)
		}
	}

	// Unknown index.
	if _, st, err := cl.Get("nope", []byte("k")); st != StatusBadRequest || err == nil {
		t.Fatalf("unknown index: %v %v", st, err)
	}
}

// TestConcurrentClients drives mixed operations from many goroutines under
// the race detector and checks that every acked write is readable.
func TestConcurrentClients(t *testing.T) {
	db := newTestDB(t, spf.Options{})
	defer db.Close()
	if _, err := db.CreateIndex("t"); err != nil {
		t.Fatal(err)
	}
	_, addr, stop := startServer(t, db, Config{Workers: 8})
	defer stop()

	const clients = 16
	const opsPer = 60
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < opsPer; i++ {
				key := []byte(fmt.Sprintf("c%02d-k%03d", c, i))
				val := []byte(fmt.Sprintf("v%03d", i))
				if _, err := cl.Put("t", key, val); err != nil {
					errs <- fmt.Errorf("put %s: %w", key, err)
					return
				}
				if v, st, err := cl.Get("t", key); err != nil || st != StatusOK || !bytes.Equal(v, val) {
					errs <- fmt.Errorf("get %s: %q %v %v", key, v, st, err)
					return
				}
				switch i % 5 {
				case 0:
					if _, err := cl.Scan("t", key, nil, 4); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := cl.Stats(); err != nil {
						errs <- err
						return
					}
				case 2:
					if st, err := cl.Ping(); err != nil || st != StatusOK {
						errs <- fmt.Errorf("ping: %v %v", st, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every client's final key survived.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for c := 0; c < clients; c++ {
		key := []byte(fmt.Sprintf("c%02d-k%03d", c, opsPer-1))
		if v, st, err := cl.Get("t", key); err != nil || st != StatusOK || len(v) == 0 {
			t.Fatalf("verify %s: %q %v %v", key, v, st, err)
		}
	}
}

// TestMalformedFrames sends structurally broken requests and checks the
// server answers StatusBadRequest (where the stream allows a response) and
// keeps other connections unaffected.
func TestMalformedFrames(t *testing.T) {
	db := newTestDB(t, spf.Options{})
	defer db.Close()
	if _, err := db.CreateIndex("t"); err != nil {
		t.Fatal(err)
	}
	srv, addr, stop := startServer(t, db, Config{MaxFrame: 1 << 10})
	defer stop()

	readStatus := func(t *testing.T, c net.Conn) Status {
		t.Helper()
		var hdr [4]byte
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := readFull(c, hdr[:]); err != nil {
			t.Fatalf("reading response header: %v", err)
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := readFull(c, body); err != nil {
			t.Fatalf("reading response body: %v", err)
		}
		return Status(body[0])
	}

	t.Run("zero-length frame", func(t *testing.T) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Write([]byte{0, 0, 0, 0})
		if st := readStatus(t, c); st != StatusBadRequest {
			t.Fatalf("status %v", st)
		}
		assertClosed(t, c)
	})

	t.Run("oversized frame", func(t *testing.T) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 1<<20) // over the 1 KiB limit
		c.Write(hdr[:])
		if st := readStatus(t, c); st != StatusBadRequest {
			t.Fatalf("status %v", st)
		}
		assertClosed(t, c)
	})

	t.Run("unknown opcode", func(t *testing.T) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Write([]byte{0, 0, 0, 1, 0xEE})
		if st := readStatus(t, c); st != StatusBadRequest {
			t.Fatalf("status %v", st)
		}
	})

	t.Run("truncated payload", func(t *testing.T) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// GET with a name length pointing past the end of the frame.
		c.Write([]byte{0, 0, 0, 3, OpGet, 10, 'x'})
		if st := readStatus(t, c); st != StatusBadRequest {
			t.Fatalf("status %v", st)
		}
	})

	t.Run("trailing garbage", func(t *testing.T) {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		// A well-formed PUT with extra bytes appended inside the frame.
		cl.wbuf = appendPutRequest(cl.wbuf[:0], "t", []byte("k"), []byte("v"))
		cl.wbuf = append(cl.wbuf, 0xFF)
		binary.BigEndian.PutUint32(cl.wbuf[:4], uint32(len(cl.wbuf)-4))
		st, _, err := cl.roundTrip()
		if err != nil || st != StatusBadRequest {
			t.Fatalf("status %v err %v", st, err)
		}
	})

	if srv.badFrames.Value() < 2 {
		t.Fatalf("malformed-frame counter %d, want >= 2", srv.badFrames.Value())
	}

	// The server still serves a healthy connection.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if st, err := cl.Put("t", []byte("after"), []byte("ok")); err != nil || st != StatusOK {
		t.Fatalf("put after malformed traffic: %v %v", st, err)
	}
}

func readFull(c net.Conn, b []byte) (int, error) {
	n := 0
	for n < len(b) {
		m, err := c.Read(b[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// assertClosed checks the server hung up after an unrecoverable frame.
func assertClosed(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := c.Read(one[:]); err == nil {
		t.Fatal("connection still open after unrecoverable frame")
	}
}

// TestDeadlineExpiry forces the single worker to stall and checks a queued
// request is answered StatusTimeout without touching the engine.
func TestDeadlineExpiry(t *testing.T) {
	db := newTestDB(t, spf.Options{})
	defer db.Close()
	if _, err := db.CreateIndex("t"); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	releaseGate := sync.OnceFunc(func() { close(gate) })
	var once sync.Once
	cfg := Config{
		Workers:        1,
		RequestTimeout: 100 * time.Millisecond,
		TestHookHandle: func(op uint8) {
			once.Do(func() { <-gate }) // stall only the first request
		},
	}
	srv, addr, stop := startServer(t, db, cfg)
	defer stop()
	defer releaseGate() // runs before stop: a failed test still drains

	slow, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fast, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, _, err := slow.Get("t", []byte("k"))
		slowDone <- err
	}()
	// Wait until the stalled request holds the only worker slot.
	deadline := time.Now().Add(5 * time.Second)
	for srv.reqTotal[OpGet].Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// The second request cannot get a slot and must time out.
	if st, err := fast.Ping(); err != nil || st != StatusTimeout {
		t.Fatalf("queued request: %v %v, want StatusTimeout", st, err)
	}
	if srv.timeouts.Value() == 0 {
		t.Fatal("deadline-expiry counter did not move")
	}

	releaseGate()
	if err := <-slowDone; err != nil {
		t.Fatalf("stalled request failed: %v", err)
	}
	// With the worker free again, requests flow normally.
	if st, err := fast.Ping(); err != nil || st != StatusOK {
		t.Fatalf("ping after unblock: %v %v", st, err)
	}
}

// TestGracefulShutdown checks that Shutdown lets an in-flight request
// finish, unblocks idle connections, and leaks no goroutines.
func TestGracefulShutdown(t *testing.T) {
	before := runtime.NumGoroutine()

	db := newTestDB(t, spf.Options{})
	if _, err := db.CreateIndex("t"); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	releaseGate := sync.OnceFunc(func() { close(gate) })
	defer releaseGate()
	var once sync.Once
	s := New(db, Config{TestHookHandle: func(op uint8) {
		if op == OpPut {
			once.Do(func() { <-gate })
		}
	}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	addr := ln.Addr().String()

	// One idle connection and one with a request in flight.
	idle, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	inflight, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	putDone := make(chan error, 1)
	go func() {
		_, err := inflight.Put("t", []byte("k"), []byte("v"))
		putDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.reqTotal[OpPut].Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	shutDone := make(chan error, 1)
	go func() { shutDone <- s.Shutdown(10 * time.Second) }()
	time.Sleep(20 * time.Millisecond) // let the drain nudge land
	releaseGate()                     // release the in-flight request

	if err := <-putDone; err != nil {
		t.Fatalf("in-flight put during shutdown: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// New connections are refused and idle ones are hung up.
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
	idle.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := idle.Ping(); err == nil {
		t.Fatal("idle connection survived shutdown")
	}
	idle.Close()
	inflight.Close()

	// The acked in-flight write is durable in the engine.
	ix, err := db.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ix.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("acked write lost: %q %v", v, err)
	}
	db.Close()

	// All server goroutines exited.
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d > %d\n%s", g, before, buf[:runtime.Stack(buf, true)])
	}
}

// TestServeDuringRestoreDrain is the instant-restart story over a real
// socket: fail the device, RecoverMedia, and serve reads (and a write)
// through the wire while the background restore backlog is still draining.
func TestServeDuringRestoreDrain(t *testing.T) {
	const keys = 12000
	db := newTestDB(t, spf.Options{
		PageSize:   1024,
		DataSlots:  1 << 15,
		PoolFrames: 2048,
		Restore:    spf.RestoreOptions{Workers: 1},
	})
	ix, err := db.CreateIndex("t")
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("val%08d", i)) }
	tx := db.Begin()
	for i := 0; i < keys; i++ {
		if err := ix.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	// Post-backup update rounds give every page a chain to replay — several
	// rounds deep, so the single restore worker cannot drain the backlog in
	// the instant between RecoverMedia returning and the first wire read.
	// The last round leaves val(i+keys).
	for round := 3; round >= 1; round-- {
		tx = db.Begin()
		for i := 0; i < keys; i++ {
			if err := ix.Update(tx, key(i), val(i+round*keys)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}

	db.FailDevice()
	ndb, _, err := db.RecoverMedia()
	if err != nil {
		t.Fatal(err)
	}
	defer ndb.Close()
	if pending := ndb.Metrics().Restore.Pending; pending == 0 {
		t.Fatal("restore backlog already drained; test would prove nothing")
	}

	_, addr, stop := startServer(t, ndb, Config{})
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Reads round-trip correct post-update values while the drain runs.
	served := 0
	for i := 0; i < keys; i += 17 {
		v, st, err := cl.Get("t", key(i))
		if err != nil || st != StatusOK || !bytes.Equal(v, val(i+keys)) {
			t.Fatalf("key %d during drain: %q %v %v", i, v, st, err)
		}
		served++
	}
	// Writes commit during the drain too.
	if st, err := cl.Put("t", key(3), []byte("updated-during-drain")); err != nil || st != StatusOK {
		t.Fatalf("put during drain: %v %v", st, err)
	}
	if v, _, err := cl.Get("t", key(3)); err != nil || string(v) != "updated-during-drain" {
		t.Fatalf("read-back during drain: %q %v", v, err)
	}

	// STATS over the wire reports the restore drain itself.
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(stats), "spf_restore_pending") ||
		!strings.Contains(string(stats), "spf_restore_repaired_total") {
		t.Fatal("stats missing restore drain metrics")
	}
	t.Logf("served %d reads during drain; pending at start of serve recorded in stats", served)
}
