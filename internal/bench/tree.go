package bench

// Drivers for E23 parallel tree ops and E28 resident reads, on a minimal
// engine below the spf facade.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backup"
	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/pagemap"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// pager is a minimal engine (pool + map + log + txn manager + PRI), the
// same substrate the btree unit tests run on. missLatency, when set,
// charges a real device latency on every buffer miss: the simulated
// devices account virtual time only, but the point of latch coupling is
// overlapping I/O stalls that a tree-global lock serializes, so the
// benchmark makes the stall real. It applies identically to both sides of
// the comparison.
type pager struct {
	dev         *storage.Device
	pmap        *pagemap.Map
	log         *wal.Manager
	pool        *buffer.Pool
	txns        *txn.Manager
	pri         *core.PRI
	missLatency time.Duration
}

func newPager(pageSize, slots, frames int) *pager {
	p := &pager{
		dev:  storage.NewDevice(storage.Config{PageSize: pageSize, Slots: slots, Profile: iosim.Instant}),
		pmap: pagemap.New(slots),
		log:  wal.NewManager(iosim.Instant),
		pri:  core.NewPRI(),
	}
	p.txns = txn.NewManager(p.log)
	p.pool = buffer.NewPool(buffer.Config{
		Capacity: frames, Device: p.dev, Map: p.pmap, Log: p.log,
		Hooks: buffer.Hooks{
			CompleteWrite: func(info buffer.WriteInfo) []*wal.Record {
				_, _ = p.pri.SetLastLSN(info.Page, info.PageLSN)
				return nil
			},
		},
	})
	p.txns.SetUndoer(p)
	return p
}

// newTree creates an empty tree on a fresh pager with the given pool size.
func newTree(b *testing.B, frames int) (*pager, *btree.Tree) {
	b.Helper()
	p := newPager(1024, 1<<18, frames)
	st := p.txns.BeginSystem()
	tr, err := btree.Create(st, "bench", p)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		b.Fatal(err)
	}
	return p, tr
}

func (p *pager) Undo(t *txn.Txn, rec *wal.Record) error {
	return btree.Compensate(t, p, rec)
}

func (p *pager) AllocateNode(t *txn.Txn, typ page.Type, initialPayload []byte) (*buffer.Handle, error) {
	id := p.pmap.AllocateLogical()
	h, err := p.pool.Create(id, typ)
	if err != nil {
		return nil, err
	}
	h.Lock()
	defer h.Unlock()
	if err := h.Page().SetPayload(initialPayload); err != nil {
		h.Release()
		return nil, err
	}
	lsn, err := t.Log(&wal.Record{
		Type:    wal.TypeFormat,
		PageID:  id,
		Payload: backup.FormatPayload(typ, initialPayload),
	})
	if err != nil {
		h.Release()
		return nil, err
	}
	h.Page().SetLSN(lsn)
	h.MarkDirty(lsn)
	p.pri.Set(id, core.Entry{
		Backup:  core.BackupRef{Kind: core.BackupFormat, Loc: uint64(lsn), AsOf: lsn},
		LastLSN: lsn,
	})
	return h, nil
}

func (p *pager) Fetch(id page.ID) (*buffer.Handle, error) {
	if p.missLatency > 0 && !p.pool.IsResident(id) {
		time.Sleep(p.missLatency)
	}
	return p.pool.Fetch(id)
}
func (p *pager) BeginSystem() *txn.Txn { return p.txns.BeginSystem() }

// treeOps is the slice of the tree API the workload exercises; the
// latch-coupled tree and the global-mutex shim both implement it.
type treeOps interface {
	Get(key []byte) ([]byte, error)
	Insert(tx *txn.Txn, key, val []byte) error
	Update(tx *txn.Txn, key, val []byte) error
	Delete(tx *txn.Txn, key []byte) error
}

// mutexTree is the tree-global-mutex baseline shim: the identical tree with
// the seed's serialization reproduced on top — writers fully serialized by
// one RWMutex, readers sharing its read side and stalling behind any
// in-flight writer: the before-side of E23.
type mutexTree struct {
	mu sync.RWMutex
	tr *btree.Tree
}

func (m *mutexTree) Get(key []byte) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.tr.Get(key)
}

func (m *mutexTree) Insert(tx *txn.Txn, key, val []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tr.Insert(tx, key, val)
}

func (m *mutexTree) Update(tx *txn.Txn, key, val []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tr.Update(tx, key, val)
}

func (m *mutexTree) Delete(tx *txn.Txn, key []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tr.Delete(tx, key)
}

const (
	// baseKeys is how many stable keys each range holds (preloaded).
	baseKeys = 128
	// flipKeys is the volatile sub-range inserts and deletes toggle.
	flipKeys = 32
	// maxWorkers caps the distinct disjoint write ranges (RunParallel
	// worker IDs wrap around beyond it). Reads roam over all ranges.
	maxWorkers = 64
	// poolFrames is sized well below the disjoint working set so reads
	// miss regularly and pay missLatency — the realistic regime where
	// serializing I/O stalls behind one tree lock hurts most. The
	// ascending preload leaves full leaves (~150 pages, growing as the
	// updates lengthen the values), half of what midpoint splits left.
	poolFrames = 128
	// missLatency is the charged device latency per buffer miss (an SSD
	// read is tens of microseconds).
	missLatency = 40 * time.Microsecond
)

func benchKey(shard, i int) []byte {
	return []byte(fmt.Sprintf("r%02d-%06d", shard, i))
}

// parallelOps returns the E23 body: 30% Get, 50% Update, 10% Insert,
// 10% Delete per worker, against either the latch-coupled tree or the
// global-mutex shim, with the optimistic descent on or off. contended
// selects whether workers share one key range or own disjoint ranges.
func parallelOps(contended, globalMutex, optimistic bool) func(b *testing.B) float64 {
	return func(b *testing.B) float64 {
		p, tr := newTree(b, poolFrames)
		tr.SetOptimistic(optimistic)
		shards := maxWorkers
		if contended {
			shards = 1
		}
		load := p.txns.Begin()
		for s := 0; s < shards; s++ {
			for i := 0; i < baseKeys; i++ {
				if err := tr.Insert(load, benchKey(s, i), []byte("v0")); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := load.Commit(); err != nil {
			b.Fatal(err)
		}
		p.missLatency = missLatency // charge misses only after the preload
		var ops treeOps = tr
		if globalMutex {
			ops = &mutexTree{tr: tr}
		}
		var widGen atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			wid := int(widGen.Add(1))
			shard := 0
			if !contended {
				shard = wid % maxWorkers
			}
			rng := uint64(wid)*0x9E3779B97F4A7C15 + 1
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			tx := p.txns.Begin()
			val := []byte("value-00000000")
			for pb.Next() {
				r := next()
				switch {
				case r%10 < 3: // Get: roams all ranges (base keys: always present)
					gshard := shard
					if !contended {
						gshard = int(r>>32) % maxWorkers
					}
					k := benchKey(gshard, int(r>>8)%baseKeys)
					if _, err := ops.Get(k); err != nil {
						b.Error(err)
						return
					}
				case r%10 < 8: // Update (base range: never deleted)
					k := benchKey(shard, int(r>>8)%baseKeys)
					if err := ops.Update(tx, k, val); err != nil {
						b.Error(err)
						return
					}
				case r%10 < 9: // Insert into the volatile sub-range
					k := benchKey(shard, baseKeys+int(r>>8)%flipKeys)
					if err := ops.Insert(tx, k, val); err != nil &&
						!errors.Is(err, btree.ErrKeyExists) {
						b.Error(err)
						return
					}
				default: // Delete from the volatile sub-range
					k := benchKey(shard, baseKeys+int(r>>8)%flipKeys)
					if err := ops.Delete(tx, k); err != nil &&
						!errors.Is(err, btree.ErrKeyNotFound) {
						b.Error(err)
						return
					}
				}
			}
			if err := tx.Commit(); err != nil {
				b.Error(err)
			}
		})
		return 0
	}
}

const (
	// residentShards sizes the E28 key space: residentShards*baseKeys keys
	// build a three-level tree (root, interior branches, leaves) so the
	// optimistic descent routes through more than one cached skeleton.
	residentShards = 32
	// residentFrames keeps the whole tree resident: E28 measures the pure
	// in-memory read path, no buffer misses, no charged I/O latency.
	residentFrames = 4096
)

// residentReads is the E28 body: point reads (GetTo into a reused buffer)
// against a fully resident, static tree. zipfian selects the key
// distribution (a Zipf(1.2) skew concentrates traffic on few hot leaves,
// the shape where root/branch latch traffic hurts most; uniform spreads
// it). It returns the fraction of descents that completed optimistically.
func residentReads(b *testing.B, zipfian, optimistic bool) float64 {
	p, tr := newTree(b, residentFrames)
	keys := make([][]byte, residentShards*baseKeys)
	load := p.txns.Begin()
	for s := 0; s < residentShards; s++ {
		for i := 0; i < baseKeys; i++ {
			k := benchKey(s, i)
			keys[s*baseKeys+i] = k
			if err := tr.Insert(load, k, []byte("value-00000000")); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := load.Commit(); err != nil {
		b.Fatal(err)
	}
	tr.SetOptimistic(optimistic)
	// Warm pass: faults every page in and (when optimistic) builds the
	// branch skeleton caches, so the timed region measures steady state.
	for _, k := range keys {
		if _, err := tr.Get(k); err != nil {
			b.Fatal(err)
		}
	}
	n := uint64(len(keys))
	var widGen atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		wid := uint64(widGen.Add(1))
		var zipf *rand.Zipf
		if zipfian {
			zipf = rand.NewZipf(rand.New(rand.NewSource(int64(wid))), 1.2, 1, n-1)
		}
		rng := wid*0x9E3779B97F4A7C15 + 1
		buf := make([]byte, 0, 64)
		for pb.Next() {
			var i uint64
			if zipfian {
				i = zipf.Uint64()
			} else {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				i = rng % n
			}
			var err error
			buf, err = tr.GetTo(buf[:0], keys[i])
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	hits, fallbacks := tr.OptimisticStats()
	if optimistic && b.N > 1000 {
		if hits == 0 {
			b.Fatal("optimistic descent never completed on a static tree")
		}
		if fallbacks*100 > hits {
			b.Fatalf("fallbacks %d vs hits %d: >1%% on a static resident tree", fallbacks, hits)
		}
	}
	if hits+fallbacks == 0 {
		return 0
	}
	return float64(hits) / float64(hits+fallbacks)
}
