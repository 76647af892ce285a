package main

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/server"
	"repro/spf"
)

type opKind int

const (
	opGet opKind = iota
	opPut
	opScan
	numOps
)

// An operation enters either through the socket or, in the alternating
// phases of a traced run, through the engine's public API in-process.
const (
	viaWire = iota
	viaEngine
	numVia
)

const scanLimit = 50

// wireSpec is one wire workload: its database and its traffic mix.
type wireSpec struct {
	db dbSpec
	// zipfS > 1 draws keys zipfian with that skew; 0 draws uniformly.
	zipfS float64
	// getPct and putPct are shares of 100; the rest are SCANs. One PUT
	// in ten inserts a fresh key, the others overwrite.
	getPct, putPct int
	// background runs a checkpoint at every slice boundary of the
	// measured phase and a backup once mid-run (wire-mixed-cold).
	background bool
}

var wireSpecs = map[string]wireSpec{
	"wire-get-resident": {
		db:     dbSpec{keys: 100_000, vlen: 64, frames: 8192, kind: spf.KindBTree},
		zipfS:  1.1,
		getPct: 100,
	},
	"wire-get-hash": {
		db:     dbSpec{keys: 100_000, vlen: 64, frames: 8192, kind: spf.KindHash},
		zipfS:  1.1,
		getPct: 100,
	},
	"wire-mixed-cold": {
		db:         dbSpec{keys: 200_000, vlen: 100, frames: 1024, kind: spf.KindBTree, lifecycle: true, spare: 40_000},
		getPct:     65,
		putPct:     30,
		background: true,
	},
}

// sliceStats is what one client records in one slice: a latency
// histogram per entry point and operation (successful, verified
// operations only) and the user bytes its acked PUTs carried.
type sliceStats struct {
	lat       [numVia][numOps]hist
	userBytes int64
}

func (s *sliceStats) merge(o *sliceStats) {
	for v := range s.lat {
		for k := range s.lat[v] {
			s.lat[v][k].merge(&o.lat[v][k])
		}
	}
	s.userBytes += o.userBytes
}

// wireOps is the number of verified wire replies in the slice.
func (s *sliceStats) wireOps() int64 {
	var n int64
	for k := range s.lat[viaWire] {
		n += s.lat[viaWire][k].n
	}
	return n
}

// loadClient is one closed-loop connection: it sends its next request
// when the previous reply arrives. After construction its loop allocates
// nothing of its own.
type loadClient struct {
	e      *env
	spec   wireSpec
	id, of int
	cl     *server.Client
	rng    *rand.Rand
	zipf   *rand.Zipf
	fresh  int // next fresh key index this client may insert
	opN    uint32
	stream streamHash

	key, val, dst []byte

	// SCAN check state; scanFn is scanVisit bound once, so an in-process
	// scan allocates no closure per call.
	scanN    int
	scanBad  string
	scanPrev []byte
	scanFn   func(spf.Entry) bool
}

func newLoadClient(e *env, spec wireSpec, id, of int) (*loadClient, error) {
	cl, err := server.Dial(e.ws.addr)
	if err != nil {
		return nil, err
	}
	c := &loadClient{
		e: e, spec: spec, id: id, of: of, cl: cl,
		rng:   rand.New(rand.NewSource(e.cfg.seed*1000 + int64(id))),
		fresh: e.spec.keys + id,
		key:   make([]byte, 0, keyLen),
		val:   make([]byte, 0, e.spec.vlen),
		dst:   make([]byte, 0, e.spec.vlen),
	}
	c.scanFn = c.scanVisit
	if spec.zipfS > 1 {
		c.zipf = rand.NewZipf(c.rng, spec.zipfS, 1, uint64(e.spec.keys-1))
	}
	return c, nil
}

// keyScramble spreads zipfian ranks over the key space (and so over the
// pages) instead of leaving the hot keys adjacent.
const keyScramble = 7919

// pick generates the next operation from the client's seeded stream.
func (c *loadClient) pick() (opKind, int) {
	keys := c.e.spec.keys
	var idx int
	if c.zipf != nil {
		idx = int(c.zipf.Uint64() * keyScramble % uint64(keys))
	} else {
		idx = c.rng.Intn(keys)
	}
	kind := opGet
	if c.spec.getPct < 100 {
		switch r := c.rng.Intn(100); {
		case r < c.spec.getPct:
		case r < c.spec.getPct+c.spec.putPct:
			kind = opPut
			if c.rng.Intn(10) == 0 && c.fresh < len(c.e.m.acked) {
				idx = c.fresh
				c.fresh += c.of
			} else {
				// A key has one writer, so its last acked version is
				// unambiguous: client id owns indexes ≡ id mod clients.
				idx = idx - idx%c.of + c.id
				if idx >= keys {
					idx -= c.of
				}
			}
		default:
			kind = opScan
		}
	}
	c.stream.add(uint64(kind)<<32 | uint64(idx))
	return kind, idx
}

// phase is one timed stretch of closed-loop load.
type phase struct {
	clients   []*loadClient
	n         int           // slices
	sliceLen  time.Duration // length of each
	alternate bool          // odd operations go through the engine in-process
	rec       *recorder     // span recorder (nil = untraced)
	// boundary, when set, runs between slices on the coordinator.
	boundary func(slice int)
}

// run drives every client for n slices and returns the per-slice stats
// merged over clients.
func (p *phase) run() []sliceStats {
	per := make([][]sliceStats, len(p.clients))
	begin := time.Now()
	var wg sync.WaitGroup
	for i, c := range p.clients {
		per[i] = make([]sliceStats, p.n)
		wg.Add(1)
		go func(c *loadClient, out []sliceStats) {
			defer wg.Done()
			c.loop(p, begin, out)
		}(c, per[i])
	}
	for s := 1; s < p.n; s++ {
		time.Sleep(time.Until(begin.Add(time.Duration(s) * p.sliceLen)))
		if p.boundary != nil {
			p.boundary(s)
		}
	}
	wg.Wait()
	merged := per[0]
	for _, o := range per[1:] {
		for s := range merged {
			merged[s].merge(&o[s])
		}
	}
	return merged
}

// loop issues operations until the phase ends. An operation belongs to
// the slice in which its reply arrived.
func (c *loadClient) loop(p *phase, begin time.Time, out []sliceStats) {
	end := begin.Add(time.Duration(p.n) * p.sliceLen)
	for {
		kind, idx := c.pick()
		via := viaWire
		if p.alternate && c.opN&1 == 1 {
			via = viaEngine
		}
		c.opN++
		if !time.Now().Before(end) {
			return
		}
		c.e.attempted.Add(1)
		d, ok := c.do(kind, via, idx, p.rec)
		if !ok {
			continue
		}
		s := int(time.Since(begin) / p.sliceLen)
		if s >= p.n {
			s = p.n - 1
		}
		out[s].lat[via][kind].add(d)
		if kind == opPut && via == viaWire {
			out[s].userBytes += int64(keyLen + c.e.spec.vlen)
		}
	}
}

// do runs one operation, times the call alone, then checks the reply
// against the model. It reports false (after recording the failure) on
// any non-OK status or wrong value.
func (c *loadClient) do(kind opKind, via int, idx int, rec *recorder) (time.Duration, bool) {
	e := c.e
	c.key = appendKey(c.key[:0], idx)
	switch kind {
	case opGet:
		lo := e.m.acked[idx].Load()
		var v []byte
		var err error
		var d time.Duration
		if via == viaWire {
			sp := rec.begin(c.opN, 0, "server.roundtrip")
			t0 := time.Now()
			var st server.Status
			v, st, err = c.cl.Get(indexName, c.key)
			d = time.Since(t0)
			rec.end(sp)
			if err == nil && st != server.StatusOK {
				err = errors.New(st.String())
			}
		} else {
			sp := rec.begin(c.opN, 0, "spf.get")
			t0 := time.Now()
			v, err = e.ix.GetTo(c.dst[:0], c.key)
			d = time.Since(t0)
			rec.end(sp)
		}
		if err != nil {
			e.fails.add("GET key %d: %v", idx, err)
			return 0, false
		}
		// Versions only grow, and the one writer of this key acks before
		// it starts its next PUT: the reply is no older than what was
		// acked before the GET and at most one ahead of what is acked now.
		ver, ok := e.m.version(v, idx)
		if hi := e.m.acked[idx].Load() + 1; !ok || ver < lo || ver > hi {
			e.fails.add("GET key %d: version %d (well-formed %v) outside acked window [%d,%d]", idx, ver, ok, lo, hi)
			return 0, false
		}
		return d, true

	case opPut:
		ver := e.m.acked[idx].Load() + 1
		c.val = e.m.appendValue(c.val[:0], idx, ver)
		var err error
		var d time.Duration
		if via == viaWire {
			sp := rec.begin(c.opN, 0, "server.roundtrip")
			t0 := time.Now()
			_, err = c.cl.Put(indexName, c.key, c.val)
			d = time.Since(t0)
			rec.end(sp)
		} else {
			d, err = c.enginePut(rec)
		}
		if err != nil {
			e.fails.add("PUT key %d version %d: %v", idx, ver, err)
			return 0, false
		}
		e.m.acked[idx].Store(ver)
		return d, true

	default:
		var d time.Duration
		c.scanN, c.scanBad, c.scanPrev = 0, "", c.scanPrev[:0]
		if via == viaWire {
			sp := rec.begin(c.opN, 0, "server.roundtrip")
			t0 := time.Now()
			entries, err := c.cl.Scan(indexName, c.key, nil, scanLimit)
			d = time.Since(t0)
			rec.end(sp)
			if err != nil {
				e.fails.add("SCAN from key %d: %v", idx, err)
				return 0, false
			}
			for _, en := range entries {
				c.scanVisit(spf.Entry{Key: en.Key, Value: en.Value})
			}
		} else {
			sp := rec.begin(c.opN, 0, "spf.scan")
			t0 := time.Now()
			err := e.ix.Scan(c.key, nil, c.scanFn)
			d = time.Since(t0)
			rec.end(sp)
			if err != nil {
				e.fails.add("SCAN from key %d: %v", idx, err)
				return 0, false
			}
		}
		// Only the initial keys are scan starts, and none is deleted, so
		// a short result means entries went missing.
		if want := min(scanLimit, e.spec.keys-idx); c.scanBad != "" || c.scanN < want {
			e.fails.add("SCAN from key %d: %d entries (want %d) %s", idx, c.scanN, want, c.scanBad)
			return 0, false
		}
		return d, true
	}
}

// scanVisit checks one scanned entry: keys ascend from the start key and
// every value is a well-formed value of its key. It reports whether the
// scan should continue.
func (c *loadClient) scanVisit(en spf.Entry) bool {
	ki, ok := keyIndex(en.Key)
	switch {
	case !ok || bytes.Compare(en.Key, c.key) < 0 || (c.scanN > 0 && bytes.Compare(en.Key, c.scanPrev) <= 0):
		c.scanBad = "keys out of order or range"
	default:
		if _, ok := c.e.m.version(en.Value, ki); !ok {
			c.scanBad = "malformed value"
		}
	}
	c.scanPrev = append(c.scanPrev[:0], en.Key...)
	c.scanN++
	return c.scanN < scanLimit
}

// enginePut is the server's PUT (update, insert on a miss, commit) made
// directly against the engine, one span per step.
func (c *loadClient) enginePut(rec *recorder) (time.Duration, error) {
	e := c.e
	engine := e.spec.kind.String()
	root := rec.begin(c.opN, 0, "txn.put")
	t0 := time.Now()
	sp := rec.begin(c.opN, root, "txn.begin")
	tx := e.db.Begin()
	rec.end(sp)
	sp = rec.begin(c.opN, root, engine+".update")
	err := e.ix.Update(tx, c.key, c.val)
	if errors.Is(err, spf.ErrNotFound) {
		err = e.ix.Insert(tx, c.key, c.val)
	}
	rec.end(sp)
	if err != nil {
		_ = tx.Abort() // the update's error is the one reported
		rec.end(root)
		return 0, err
	}
	sp = rec.begin(c.opN, root, "txn.commit")
	err = e.db.Commit(tx)
	rec.end(sp)
	d := time.Since(t0)
	rec.end(root)
	return d, err
}

// perSlice maps every slice to a number.
func perSlice(slices []sliceStats, f func(*sliceStats) float64) []float64 {
	out := make([]float64, len(slices))
	for i := range slices {
		out[i] = f(&slices[i])
	}
	return out
}

// total merges all slices of a phase.
func total(slices []sliceStats) *sliceStats {
	t := new(sliceStats)
	for i := range slices {
		t.merge(&slices[i])
	}
	return t
}

// runWire runs one of the three wire workloads.
func runWire(e *env, spec wireSpec, res *result) error {
	secs := e.cfg.seconds
	if err := e.start(res); err != nil {
		return err
	}
	defer e.tearDown()

	nClients := clientCount()
	clients := make([]*loadClient, nClients)
	for i := range clients {
		var err error
		if clients[i], err = newLoadClient(e, spec, i, nClients); err != nil {
			return err
		}
		defer clients[i].cl.Close()
	}
	// The measured window is ten slices; every metric is computed per
	// slice and the median over slices is reported.
	const slices = 10
	dur := func(share float64) time.Duration { return time.Duration(secs * share * float64(time.Second)) }

	// Warm-up: caches fill, connections and buffers reach steady state.
	(&phase{clients: clients, n: 1, sliceLen: dur(0.1)}).run()

	main := &phase{clients: clients, n: slices, sliceLen: dur(1.0 / slices)}
	var ckptMs, backupMs []float64
	var backup spf.BackupReport
	if spec.background {
		// A checkpoint at every slice boundary, the backup once mid-run.
		main.boundary = func(s int) {
			t0 := time.Now()
			if _, err := e.db.Checkpoint(); err != nil {
				e.fails.add("checkpoint at slice %d: %v", s, err)
			}
			ckptMs = append(ckptMs, ms(time.Since(t0)))
			if s == slices/2 {
				t0 = time.Now()
				_, rep, err := e.db.BackupNow()
				if err != nil {
					e.fails.add("mid-run backup: %v", err)
				}
				backupMs = append(backupMs, ms(time.Since(t0)))
				backup = rep
			}
		}
	}
	before := e.snapshot()
	measured := main.run()
	d := e.snapshot().minus(before)
	final := e.db.Metrics()
	all := total(measured)

	res.setMedian("ops_per_s", perSlice(measured, func(s *sliceStats) float64 {
		return float64(s.wireOps()) / main.sliceLen.Seconds()
	}), all.wireOps())
	res.setLatency("read_p50_us", measured, opGet, 0.5)
	res.setLatency("read_p99_us", measured, opGet, 0.99)
	res.setLatency("read_max_us", measured, opGet, 1)
	if puts := all.lat[viaWire][opPut].n; puts > 0 {
		res.setLatency("write_p50_us", measured, opPut, 0.5)
		res.setLatency("write_p99_us", measured, opPut, 0.99)
		res.setLatency("write_max_us", measured, opPut, 1)
		res.setLatency("scan_p50_us", measured, opScan, 0.5)
		res.set("log_bytes_per_user_byte", ratio(d[cLogBytes], float64(all.userBytes)), puts)
	}

	if !e.cfg.traced {
		res.set("heap_mb", e.heapMB(), 1)
	} else {
		counterMetrics(res, d, opCounts{
			gets:  float64(all.lat[viaWire][opGet].n),
			puts:  float64(all.lat[viaWire][opPut].n),
			scans: float64(all.lat[viaWire][opScan].n),
		}, final, e.spec.kind)
		res.setRounds("recovery.checkpoint_ms", ckptMs)
		res.setRounds("backup.backup_ms", backupMs)
		res.set("backup.pages_written", float64(backup.Written), 1)
		res.set("backup.pages_skipped", float64(backup.Skipped), 1)

		// The alternating phases: one client, even operations through the
		// socket and odd ones through the engine on the same key stream,
		// first without and then with the span recorder.
		one := clients[:1]
		plain := total((&phase{clients: one, n: 1, sliceLen: dur(0.25), alternate: true}).run())
		b0 := e.snapshot()
		traced := total((&phase{clients: one, n: 1, sliceLen: dur(0.25), alternate: true, rec: e.rec}).run())
		b1 := e.snapshot().minus(b0)
		wireBudget(res, e.spec.kind, traced, b1, e.rec.stats())
		res.set("trace.overhead_pct",
			100*ratio(traced.lat[viaWire][opGet].meanNs()-plain.lat[viaWire][opGet].meanNs(), plain.lat[viaWire][opGet].meanNs()),
			traced.lat[viaWire][opGet].n)
	}

	for _, c := range clients {
		res.stream ^= c.stream.h
	}
	e.finish(res)
	return nil
}

// wireBudget splits the mean wire round trip of each operation into the
// socket, the server and the engine, from like populations: the wire and
// in-process operations of one alternating phase. The three parts of a
// GET sum to its wire mean by construction.
func wireBudget(res *result, kind spf.IndexKind, t *sliceStats, d counters, spans map[string]spanStat) {
	engine := kind.String()
	if engine == "hash" {
		engine = "hashindex"
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	for _, b := range []struct {
		op      opKind
		name    string
		seconds ctr
		inside  string // what the in-process call is
	}{
		{opGet, "GET", cSrvGetSeconds, engine + ".get"},
		{opPut, "PUT", cSrvPutSeconds, "txn.put"},
		{opScan, "SCAN", cSrvScanSeconds, engine + ".scan"},
	} {
		w, in := &t.lat[viaWire][b.op], &t.lat[viaEngine][b.op]
		if w.n == 0 || in.n == 0 {
			continue
		}
		wire := us(w.meanNs())
		srv := ratio(d[b.seconds], d[b.seconds+1]) * 1e6
		eng := us(in.meanNs())
		res.budget = append(res.budget, budgetRow{op: "wire " + b.name, totalUs: wire, n: w.n, parts: []budgetPart{
			{"server.socket", wire - srv}, {"server.handle", srv - eng}, {b.inside, eng},
		}})
		switch b.op {
		case opGet:
			res.set("server.socket_us", wire-srv, w.n)
			res.set("server.handle_us", srv-eng, w.n)
			res.set(engine+".get_us", eng, in.n)
		case opScan:
			res.set("btree.scan_us_per_entry", eng/scanLimit, in.n)
		}
	}
	if kind == spf.KindBTree {
		if st := spans["btree.update"]; st.n > 0 {
			res.set("btree.update_us", st.meanUs(), st.n)
		}
	}
	if st := spans["txn.commit"]; st.n > 0 {
		res.set("txn.commit_us", st.meanUs(), st.n)
	}
	for _, name := range []string{"txn.put", "txn.begin", kind.String() + ".update", "txn.commit"} {
		if st := spans[name]; st.n > 0 {
			res.steps = append(res.steps, stepRow{name: name, meanUs: st.meanUs(), selfUs: st.selfMeanUs(), n: st.n})
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
