package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/spf"
)

// The engine is configured the way cmd/spfserver ships it: 4 KiB pages,
// maintenance on, a 200µs group-commit window (the flush policy: a PUT is
// acked only after its commit is durable). The device is the in-memory
// storage.Device, so every latency is the sandbox's CPU cost, not a
// disk's.
const (
	pageSize    = 4096
	groupCommit = 200 * time.Microsecond
	indexName   = "kv"
	loadBatch   = 1000
)

// dbSpec sizes one workload's database.
type dbSpec struct {
	keys, vlen int
	frames     int
	kind       spf.IndexKind
	lifecycle  bool
	// spare is how many fresh keys beyond keys the run may insert.
	spare int
}

// scaled shrinks the data for the smoke test. A pool the data is meant
// to fit in stays as it is; a pool meant to be smaller than the data
// shrinks with it.
func (s dbSpec) scaled(scale float64) dbSpec {
	s.keys = scaleInt(s.keys, scale, 500)
	s.spare = scaleInt(s.spare, scale, 0)
	if scale < 1 && s.frames < 8192 {
		s.frames = scaleInt(s.frames, scale, 64)
	}
	return s
}

func scaleInt(n int, scale float64, min int) int {
	if v := int(float64(n) * scale); v > min {
		return v
	}
	return min
}

func (s dbSpec) options(seed int64) spf.Options {
	return spf.Options{
		PageSize:          pageSize,
		DataSlots:         1 << 16,
		PoolFrames:        s.frames,
		GroupCommitWindow: groupCommit,
		Maintenance:       spf.MaintenanceOptions{Enabled: true},
		Lifecycle:         spf.LifecycleOptions{Enabled: s.lifecycle},
		IndexKind:         s.kind,
		Seed:              seed,
	}
}

// model is the generator's record of what the database must hold: for
// every key index the version of its last acked write (0 = absent). A
// value is a pure function of (index, version), so a reply is checked by
// recomputing it; nothing but the version array is stored.
type model struct {
	vlen  int
	acked []atomic.Uint32
}

func newModel(s dbSpec) *model {
	return &model{vlen: s.vlen, acked: make([]atomic.Uint32, s.keys+s.spare)}
}

const keyLen = 14

// appendKey renders key index idx as "user%010d" without allocating.
func appendKey(dst []byte, idx int) []byte {
	dst = append(dst, 'u', 's', 'e', 'r', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0')
	for p := len(dst) - 1; idx > 0; p-- {
		dst[p] = byte('0' + idx%10)
		idx /= 10
	}
	return dst
}

func keyIndex(key []byte) (int, bool) {
	if len(key) != keyLen || string(key[:4]) != "user" {
		return 0, false
	}
	idx := 0
	for _, c := range key[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + int(c-'0')
	}
	return idx, true
}

// appendValue renders the value of (idx, ver): both numbers, then filler
// derived from them, vlen bytes in all.
func (m *model) appendValue(dst []byte, idx int, ver uint32) []byte {
	n := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(idx))
	dst = binary.BigEndian.AppendUint32(dst, ver)
	x := uint32(idx)*2654435761 ^ ver*40503
	for i := 8; i < m.vlen; i++ {
		dst = append(dst, byte(x>>(8*uint(i&3)))+byte(i))
	}
	return dst[:n+m.vlen]
}

// version checks that val is a well-formed value of key idx and returns
// the version it carries.
func (m *model) version(val []byte, idx int) (uint32, bool) {
	if len(val) != m.vlen || binary.BigEndian.Uint32(val) != uint32(idx) {
		return 0, false
	}
	ver := binary.BigEndian.Uint32(val[4:])
	x := uint32(idx)*2654435761 ^ ver*40503
	for i := 8; i < m.vlen; i++ {
		if val[i] != byte(x>>(8*uint(i&3)))+byte(i) {
			return 0, false
		}
	}
	return ver, true
}

// failures counts failed operations and keeps the first few descriptions.
type failures struct {
	n    atomic.Int64
	mu   sync.Mutex
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	f.n.Add(1)
	f.mu.Lock()
	if len(f.msgs) < 10 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
	f.mu.Unlock()
}

// env is one workload run's state.
type env struct {
	cfg   runConfig
	spec  dbSpec
	db    *spf.DB
	ix    *spf.Index
	m     *model
	ws    *wireServer
	fails *failures
	// attempted counts every checked operation: wire requests, in-process
	// calls, and each key of a verification pass.
	attempted atomic.Int64
	rec       *recorder
}

// build opens a database, loads spec.keys keys at version 1, flushes and
// takes the full backup every repair and media recovery resolves against.
func build(spec dbSpec, seed int64) (*spf.DB, *spf.Index, *model, error) {
	db, err := spf.Open(spec.options(seed))
	if err != nil {
		return nil, nil, nil, err
	}
	ix, err := db.CreateIndex(indexName)
	if err != nil {
		db.Close()
		return nil, nil, nil, err
	}
	m := newModel(spec)
	var key, val []byte
	for lo := 0; lo < spec.keys; lo += loadBatch {
		tx := db.Begin()
		for i := lo; i < lo+loadBatch && i < spec.keys; i++ {
			key = appendKey(key[:0], i)
			val = m.appendValue(val[:0], i, 1)
			if err := ix.Insert(tx, key, val); err != nil {
				db.Close()
				return nil, nil, nil, fmt.Errorf("load key %d: %w", i, err)
			}
		}
		if err := db.Commit(tx); err != nil {
			db.Close()
			return nil, nil, nil, fmt.Errorf("load commit: %w", err)
		}
	}
	for i := 0; i < spec.keys; i++ {
		m.acked[i].Store(1)
	}
	if _, _, err := db.BackupNow(); err != nil {
		db.Close()
		return nil, nil, nil, fmt.Errorf("initial backup: %w", err)
	}
	return db, ix, m, nil
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median. One set-up is what a user pays, but the builder contract gates
// later changes on setup_s and a single sample of a 0.3–3 s set-up moves
// 20% between runs here, so it asks for several and their median.
const setupReps = 3

// start sets the workload up — setupReps times in an untraced run, whose
// setup_s it reports, once in a traced run, which also gets its span
// recorder. The caller defers tearDown.
func (e *env) start(res *result) error {
	reps := setupReps
	if e.cfg.traced {
		reps = 1
		e.rec = newRecorder()
	}
	setup, err := e.setUp(reps)
	if err == nil && !e.cfg.traced {
		res.set("setup_s", setup, int64(reps))
	}
	return err
}

// finish ends every workload the same way: server down, the isolated
// probes of a traced run, then the audit — every key read back, the index
// verified, no repair escalated.
func (e *env) finish(res *result) {
	if err := e.ws.stop(); err != nil {
		e.fails.add("server shutdown: %v", err)
	}
	e.ws = nil
	if e.cfg.traced {
		runProbes(e, res)
	}
	e.verifyAll("after run")
	e.finalChecks()
}

// streamHash hashes the first streamPrefix operations a generator
// produced; the same seed must give the same hash.
type streamHash struct {
	h uint64
	n int
}

const streamPrefix = 200

func (s *streamHash) add(x uint64) {
	if s.n < streamPrefix {
		s.h = (s.h ^ x) * 1099511628211
		s.n++
	}
}

// serialGet is one timed wire GET by a serial client, verified against
// the model: with no writer running the value must be exactly the last
// acked version. key is the caller's reused key buffer.
func (e *env) serialGet(cl *server.Client, key *[]byte, idx int) (time.Duration, bool) {
	e.attempted.Add(1)
	*key = appendKey((*key)[:0], idx)
	t0 := time.Now()
	v, st, err := cl.Get(indexName, *key)
	d := time.Since(t0)
	if err != nil || st != server.StatusOK {
		e.fails.add("GET key %d: status %v, err %v", idx, st, err)
		return 0, false
	}
	if ver, ok := e.m.version(v, idx); !ok || ver != e.m.acked[idx].Load() {
		e.fails.add("GET key %d: version %d (well-formed %v), acked %d", idx, ver, ok, e.m.acked[idx].Load())
		return 0, false
	}
	return d, true
}

// setUp builds the workload's database and stands the server up over it,
// reps times, keeping the last. It returns the median set-up time
// (open → loaded, flushed, backed up, server listening, client
// connected and answered).
func (e *env) setUp(reps int) (float64, error) {
	var times []float64
	for r := 0; r < reps; r++ {
		if r > 0 {
			if err := e.tearDown(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		db, ix, m, err := build(e.spec, e.cfg.seed)
		if err != nil {
			return 0, err
		}
		e.db, e.ix, e.m = db, ix, m
		if err := e.serve(); err != nil {
			return 0, err
		}
		cl, err := server.Dial(e.ws.addr)
		if err != nil {
			return 0, err
		}
		st, err := cl.Ping()
		cl.Close()
		if err != nil || st != server.StatusOK {
			return 0, fmt.Errorf("ping after set-up: status %v, err %v", st, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	_, med, _ := quartiles(times)
	return med, nil
}

// tearDown stops the server and closes the database.
func (e *env) tearDown() error {
	var err error
	if e.ws != nil {
		err = e.ws.stop()
		e.ws = nil
	}
	if e.db != nil {
		if cerr := e.db.Close(); err == nil {
			err = cerr
		}
		e.db, e.ix = nil, nil
	}
	return err
}

// wireServer is internal/server on a loopback socket over one DB.
type wireServer struct {
	srv  *server.Server
	addr string
	done chan error
}

// serve stands a server up over e.db. A Server is bound to its DB, so
// every Restart/RecoverMedia gets a fresh one.
func (e *env) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w := &wireServer{srv: server.New(e.db, server.Config{}), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { w.done <- w.srv.Serve(ln) }()
	e.ws = w
	return nil
}

func (w *wireServer) stop() error {
	err := w.srv.Shutdown(10 * time.Second)
	if serr := <-w.done; err == nil {
		err = serr
	}
	return err
}

// verifyAll reads every key of the model back in-process and checks it
// holds exactly the last acked version (or is absent). Each key is one
// attempted operation.
func (e *env) verifyAll(when string) {
	var key, dst []byte
	for i := range e.m.acked {
		e.attempted.Add(1)
		want := e.m.acked[i].Load()
		key = appendKey(key[:0], i)
		v, err := e.ix.GetTo(dst[:0], key)
		if want == 0 {
			if !errors.Is(err, spf.ErrNotFound) {
				e.fails.add("%s: key %d never acked but read back (err %v)", when, i, err)
			}
			continue
		}
		if err != nil {
			e.fails.add("%s: acked key %d lost: %v", when, i, err)
			continue
		}
		dst = v
		if got, ok := e.m.version(v, i); !ok || got != want {
			e.fails.add("%s: key %d holds version %d (well-formed %v), last acked %d", when, i, got, ok, want)
		}
	}
}

// finalChecks is the end-of-workload audit: the index verifies clean and
// no repair escalated.
func (e *env) finalChecks() {
	e.attempted.Add(1)
	viols, err := e.ix.Verify()
	if err != nil {
		e.fails.add("Index.Verify: %v", err)
	}
	for _, v := range viols {
		e.fails.add("Index.Verify: %s", v)
	}
	e.checkEscalations()
}

func (e *env) checkEscalations() {
	m := e.db.Metrics()
	if n := m.Recovery.Escalations + m.Pool.Escalations; n > 0 {
		e.fails.add("%d escalated repairs (recovery %d, pool %d)", n, m.Recovery.Escalations, m.Pool.Escalations)
	}
}

// heapMB is HeapAlloc after a forced collection. With the log lifecycle
// on, the log is first brought to its resting size (a checkpoint and a
// synchronous archive pass), or the number would depend on how far the
// background archiver happened to have got.
func (e *env) heapMB() float64 {
	if e.spec.lifecycle {
		if _, err := e.db.Checkpoint(); err != nil {
			e.fails.add("settling checkpoint: %v", err)
		}
		if err := e.db.ArchiveNow(); err != nil {
			e.fails.add("settling archive pass: %v", err)
		}
	}
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalisers and pools released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func clientCount() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}
