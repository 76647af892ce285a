package spf

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hashindex"
	"repro/internal/page"
)

// The model-based checker. One schedule, drawn from a seed or from fuzz
// bytes, drives a B-tree and a hash index in one database through short
// transactions that commit or abort, page faults of every kind on every
// page class, backups, checkpoints, archiving, crashes at the chaos points
// and device failures. The model holds what was acknowledged: a write is in
// it exactly when the Commit of its transaction returned nil, and a commit
// a crash overtakes reports ErrCommitLost and is rolled back. So after
// every recovery and at the end both engines must equal the model on every
// key of the key space, present or absent, by Get and by a full Scan.

const (
	checkKeys = 600 // every key in [0, checkKeys) is checked after every recovery
	checkLoad = 300 // keys the schedule starts with
)

// crashPoints are the chaos sites a crash is armed at; its k-th execution
// signals a controller goroutine that crashes the database, so the failure
// lands asynchronously to whatever the schedule is doing. Beside it,
// wal.crash and restart.prep each corrupt a page's stored image, so that
// single-page recovery runs inside the crash and inside restart. The
// checkpoint points land in a half-taken checkpoint, the wal.archive ones
// and wal.recycle inside an archiver pass, restore.complete crashes a
// second time while restart's redo backlog drains, and txn.syscommit cuts
// a system transaction whose changes are applied but whose commit is not
// logged, which restart then drops.
var crashPoints = []string{
	"wal.publish", "buffer.writeback", "restore.complete", "recovery.checkpoint",
	"wal.archive.seal", "wal.archive.write", "wal.recycle",
	"recovery.checkpoint.snapshot", "txn.syscommit",
}

var (
	pageClasses = []string{"btree/leaf", "btree/branch", "hash/directory", "hash/bucket", "hash/overflow"}
	faultKinds  = []FaultKind{FaultReadError, FaultSilentCorruption, FaultZeroPage, FaultTornWrite, FaultLostWrite}
)

// pageClass names the engine page class of pg ("" for other pages).
func pageClass(pg *page.Page) string {
	switch pg.Type() {
	case page.TypeBTree:
		role, _ := btree.PageRole(pg.Payload())
		return "btree/" + role
	case page.TypeHash:
		role, _ := hashindex.PageRole(pg.Payload())
		return "hash/" + role
	}
	return ""
}

// schedule is the source of every choice a run makes: a seeded generator,
// or fuzz bytes, which end the schedule when they run out.
type schedule struct {
	rng  *rand.Rand
	data []byte
}

func seeded(seed int64) *schedule { return &schedule{rng: rand.New(rand.NewSource(seed))} }

// intn draws from [0, n). Out of fuzz bytes it draws 0.
func (s *schedule) intn(n int) int {
	if s.rng != nil {
		return s.rng.Intn(n)
	}
	x := 0
	for m := 1; m < n && len(s.data) > 0; m <<= 8 {
		x = x<<8 | int(s.data[0])
		s.data = s.data[1:]
	}
	return x % n
}

// over reports that a fuzz schedule has used up its bytes.
func (s *schedule) over() bool { return s.rng == nil && len(s.data) == 0 }

// coverage counts, by name, what the runs exercised.
type coverage struct {
	mu sync.Mutex
	n  map[string]int
}

func (cv *coverage) add(name string) {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	if cv.n == nil {
		cv.n = make(map[string]int)
	}
	cv.n[name]++
}

// sequentialCoverage names what the sequential runs over the default seeds
// must do: fire every crash point, fault, detect and repair a page of every
// class, and each thing below.
func sequentialCoverage() []string {
	names := []string{"restart that queued redo pages", "media recovery that replayed log written after the backup",
		"aborted transaction", "aborted transaction that deleted", "restart that dropped a system transaction",
		"crash that cut a user transaction with updates on both engines",
		"repair resolved from a copy in the live log", "repair resolved from a copy in an archive run",
		"crash that cut a copy's record"}
	for _, p := range append(crashPoints, "wal.crash", "restart.prep", "wal.recycle without an archive") {
		names = append(names, "crash at "+p)
	}
	for _, class := range pageClasses {
		names = append(names, "repaired "+class+" fault")
	}
	return names
}

// assert fails t unless the runs did each thing named.
func (cv *coverage) assert(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		if cv.n[name] == 0 {
			t.Errorf("coverage: no %s", name)
		}
	}
	t.Logf("coverage: %v", cv.n)
}

// checker runs one schedule against one database and its model.
type checker struct {
	tb      testing.TB
	s       *schedule
	cov     *coverage
	db      *DB
	bt, hx  *Index
	archive bool
	stamp   atomic.Int64 // values written, so that most values are unique

	mu    sync.Mutex
	model map[string][]byte // the acknowledged state

	// faults counts device faults injected since the device was last
	// replaced: the only reason a slot may be retired.
	faults atomic.Int64
	// crashing is set from the moment a crash or device failure is decided
	// until recovery returns; operation errors are expected only then.
	crashing atomic.Bool
	crash    *pendingCrash

	// sequential marks a schedule run on one goroutine. Its checks after a
	// recovery also hold that the drained restore queue left none of its
	// pages for a read to repair.
	sequential bool
	// sticky lists the pages given a sticky device fault since the device
	// was last replaced. A sticky lost write drops every write-back to the
	// page's slot, so each cold read of the page repairs it again.
	sticky map[PageID]bool
	// repaired lists the pages single-page recovery rebuilt, in order.
	repairedMu sync.Mutex
	repaired   []PageID
}

// pendingCrash is an armed crash point and its controller goroutine.
type pendingCrash struct {
	point        string
	fireAt       int64
	budget, step int // steps before the schedule crashes by hand
	signal       chan struct{}
	done         chan struct{} // closed once Crash has returned
	inflight     bool          // the crash cut a transaction with updates on both engines
}

// newChecker opens a database with an empty B-tree "bt" and hash index
// "hx", taking a page copy every backupEvery updates (0: the default).
// Its archiver runs on a manual clock: it steps on the checker's explicit
// passes, and on Advance where a caller moves the clock.
func newChecker(tb testing.TB, s *schedule, cov *coverage, archive bool, backupEvery int) *checker {
	opts := testOptions()
	opts.PoolFrames = 48 // evictions, and so write-backs, mid-transaction
	opts.Restore.Workers = 2
	opts.Lifecycle = LifecycleOptions{Enabled: archive, SegmentBytes: 4 << 10}
	opts.BackupEveryNUpdates = backupEvery
	opts.clock = clock.NewManual()
	c := &checker{tb: tb, s: s, cov: cov, archive: archive, model: make(map[string][]byte), sticky: make(map[PageID]bool)}
	db, err := Open(opts)
	c.expect(err)
	if _, err = db.CreateIndexKind("bt", KindBTree); err == nil {
		_, err = db.CreateIndexKind("hx", KindHash)
	}
	c.expect(err)
	c.use(db)
	return c
}

// load commits checkLoad keys and takes the full backup media recovery
// needs.
func (c *checker) load() {
	tx := c.db.Begin()
	for i := 0; i < checkLoad; i++ {
		val := c.value(c.s)
		c.expect(c.write(tx, k(i), val, false))
		c.model[string(k(i))] = val
	}
	c.expect(tx.Commit())
	c.admin(0)
}

// fatalf fails the test and ends the calling goroutine. Every goroutine
// of a run calls it, so none of them is the test's own: checked runs them.
func (c *checker) fatalf(format string, args ...any) {
	c.tb.Helper()
	c.tb.Errorf(format, args...)
	runtime.Goexit()
}

// checked runs f on a goroutine of its own and fails the test now if f
// failed it.
func checked(tb testing.TB, f func()) {
	tb.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	<-done
	if tb.Failed() {
		tb.FailNow()
	}
}

// expect accepts err only while a crash or device failure is underway,
// and never a key-existence error: that means the engines and the model
// disagree.
func (c *checker) expect(err error) {
	c.tb.Helper()
	if err != nil && (!c.crashing.Load() || errors.Is(err, ErrKeyExists) || errors.Is(err, ErrKeyNotFound)) {
		c.fatalf("%v", err)
	}
}

func (c *checker) value(s *schedule) []byte {
	val := bytes.Repeat([]byte{byte('a' + s.intn(26))}, 1+s.intn(100))
	copy(val, strconv.FormatInt(c.stamp.Add(1), 36)+":")
	return val
}

func (c *checker) lookup(pending map[string][]byte, key string) bool {
	if v, ok := pending[key]; ok {
		return v != nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.model[key]
	return ok
}

// write applies one op to both engines — a delete if val is nil, else an
// update of a key that exists or an insert — and reads it back.
func (c *checker) write(tx *Txn, key, val []byte, exists bool) error {
	for _, ix := range []*Index{c.bt, c.hx} {
		var err error
		switch {
		case val == nil:
			err = ix.Delete(tx, key)
		case exists:
			err = ix.Update(tx, key, val)
		default:
			err = ix.Insert(tx, key, val)
		}
		if err == nil { // the writer reads its own write back
			if got, gerr := ix.Get(key); !bytes.Equal(got, val) || (val == nil) != errors.Is(gerr, ErrNotFound) {
				err = fmt.Errorf("reads back %q, %v", got, gerr)
			}
		}
		if err != nil {
			return fmt.Errorf("%v op on %q: %w", ix.Kind(), key, err)
		}
	}
	return nil
}

// transaction runs one drawn transaction of one to four inserts, updates
// and deletes on keys drawn by key, and settles its verdict in the model:
// acknowledged if Commit returned nil, rolled back otherwise. between runs
// after every op but the last. It returns how many ops reached both
// engines and whether the commit was acknowledged.
func (c *checker) transaction(s *schedule, key func() int, between func()) (applied int, acked bool) {
	tx := c.db.Begin()
	pending := make(map[string][]byte) // nil: deleted
	deleted := false
	for j, n := 0, 1+s.intn(4); j < n; j++ {
		kk := k(key())
		exists := c.lookup(pending, string(kk))
		var val []byte
		if !exists || s.intn(4) != 0 {
			val = c.value(s)
		} else {
			deleted = true
		}
		if err := c.write(tx, kk, val, exists); err != nil {
			c.expect(err)
			return applied, false
		}
		pending[string(kk)] = val
		if applied++; between != nil && j < n-1 {
			between()
		}
	}
	if s.intn(6) == 0 {
		if err := tx.Abort(); err != nil {
			c.expect(err)
		} else {
			c.cov.add("aborted transaction")
			if deleted {
				c.cov.add("aborted transaction that deleted")
			}
		}
		return applied, false
	}
	if err := tx.Commit(); err != nil {
		if !errors.Is(err, ErrCommitLost) {
			c.fatalf("commit returned %v, want nil or ErrCommitLost", err)
		}
		return applied, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, val := range pending {
		if val == nil {
			delete(c.model, key)
		} else {
			c.model[key] = val
		}
	}
	return applied, true
}

// admin runs one background action by hand: 0 a full backup, 1 a
// checkpoint, 2 an archiver pass, 3 a flush.
func (c *checker) admin(which int) {
	var err error
	switch which {
	case 0:
		_, _, err = c.db.BackupNow()
	case 1:
		_, err = c.db.Checkpoint()
	case 2:
		err = c.db.ArchiveNow()
	case 3:
		err = c.db.FlushAll()
	}
	c.expect(err)
}

// classify fetches every page and groups the index pages by class. With
// dirty set it keeps only dirty pages that have a slot, which a write
// fault needs.
func (c *checker) classify(dirty bool) map[string][]PageID {
	out := make(map[string][]PageID)
	for _, id := range c.db.Pages() {
		if _, ok := c.db.PhysicalSlot(id); dirty && (!ok || !c.db.pool.IsDirty(id)) {
			continue
		}
		h, err := c.db.pool.Fetch(id)
		if err != nil {
			continue // a concurrent injection being repaired right now
		}
		h.RLock()
		class := pageClass(h.Page())
		h.RUnlock()
		h.Release()
		if class != "" {
			out[class] = append(out[class], id)
		}
	}
	return out
}

// fault injects one drawn fault into a page of a drawn class and drives it
// through detection at once: a read fault is met by the next read, a write
// fault by the page's write-back followed by a read. The read must come
// back repaired, and a repair must have run for it.
func (c *checker) fault() {
	class := pageClasses[c.s.intn(len(pageClasses))]
	kind := faultKinds[c.s.intn(len(faultKinds))]
	sticky := c.s.intn(2) == 0
	write := kind == FaultTornWrite || kind == FaultLostWrite
	c.db.DrainRestore() // background repairs would blur the count below
	cands := c.classify(write)[class]
	if len(cands) == 0 {
		return
	}
	id := cands[c.s.intn(len(cands))]
	phys, _ := c.db.PhysicalSlot(id)
	before := c.db.Metrics()
	if !write {
		c.expect(c.db.EvictPage(id))
	}
	if err := c.db.InjectPageFault(id, kind, sticky); errors.Is(err, ErrNoSlot) {
		return // never written back: nothing on the device to damage
	} else if err != nil {
		c.fatalf("inject: %v", err)
	}
	c.faults.Add(1)
	if sticky {
		c.sticky[id] = true
	}
	if write {
		c.expect(c.db.pool.FlushPage(id))
		if kind == FaultTornWrite && page.Verify(c.db.dev.RawImage(phys)) == nil {
			return // the half the tear kept had not changed: no damage
		}
	}
	c.expect(c.db.EvictPage(id))
	h, err := c.db.pool.Fetch(id)
	if err != nil {
		c.fatalf("%s page %d with a %v fault (sticky %v) not repaired: %v", class, id, kind, sticky, err)
	}
	h.Release()
	// A one-shot read error is absorbed by the pool's re-read: the device
	// reports it, and no repair is due.
	after := c.db.Metrics()
	reread := kind == FaultReadError && !sticky && after.Device.ReadErrors > before.Device.ReadErrors
	if after.Pool.Recoveries == before.Pool.Recoveries && !reread {
		c.fatalf("%s page %d: a %v fault (sticky %v) was not detected", class, id, kind, sticky)
	}
	c.cov.add("repaired " + class + " fault")
}

// armCrash arms point, the nested faults beside it and the controller
// goroutine that crashes the database once the point fires.
func (c *checker) armCrash(point string) {
	chaos.Reset()
	db := c.db
	var victims []PageID // index pages with a stored image
	for _, ids := range c.classify(false) {
		for _, id := range ids {
			if _, ok := db.PhysicalSlot(id); ok {
				victims = append(victims, id)
			}
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	for _, nested := range []string{"wal.crash", "restart.prep"} {
		if len(victims) > 0 {
			id := victims[c.s.intn(len(victims))]
			chaos.Arm(nested, 1, func(chaos.Hit) {
				if db.CorruptPage(id) == nil {
					c.faults.Add(1)
				}
			})
		}
	}
	cr := &pendingCrash{point: point, budget: 12, signal: make(chan struct{}, 1), done: make(chan struct{})}
	hits, ok := map[string]int{"wal.publish": 120, "buffer.writeback": 12, "restore.complete": 4,
		"recovery.checkpoint": 2, "recovery.checkpoint.snapshot": 2}[point]
	if !ok {
		hits = 3 // the archiver's points: once per pass
	}
	cr.fireAt = 1 + int64(c.s.intn(hits))
	if point == "restore.complete" {
		// Armed before Restart; the crash before it is made by hand, once
		// the schedule has left some pages dirty.
		cr.budget = 1 + c.s.intn(6)
	} else {
		chaos.Arm(point, cr.fireAt, func(chaos.Hit) {
			if point == "txn.syscommit" {
				// The crash lands right here, so that it cuts the system
				// transaction: the database goes down first, as Crash
				// takes it down, a concurrent commit's force makes the
				// transaction's changes stable, and the seal comes before
				// its commit. Restart finds it without an end record and
				// drops it.
				db.mu.Lock()
				db.crashed = true
				db.down.Store(true)
				db.mu.Unlock()
				db.log.FlushAll()
				db.log.Crash()
			}
			c.signal(cr)
		})
	}
	go func() {
		defer close(cr.done)
		<-cr.signal
		db.Crash()
	}()
	c.crash = cr
}

// signal asks the controller to crash. It never blocks: a point may fire
// again after the crash, on a goroutine nothing waits for.
func (c *checker) signal(cr *pendingCrash) {
	c.crashing.Store(true)
	select {
	case cr.signal <- struct{}{}:
	default:
	}
}

// landed reports whether the pending crash has happened, crashing by hand
// once the schedule has spent its budget without reaching the point.
func (c *checker) landed() bool {
	cr := c.crash
	select {
	case <-cr.done:
		return true
	default:
	}
	if cr.step++; cr.step <= cr.budget {
		return false
	}
	c.signal(cr)
	<-cr.done
	return true
}

// use adopts a database and its indexes, and has its pool note every page
// single-page recovery rebuilds, and every repair a page copy served, by
// where the log held the copy.
func (c *checker) use(db *DB) {
	c.db = db
	var err error
	if c.bt, err = db.Index("bt"); err == nil {
		c.hx, err = db.Index("hx")
	}
	c.expect(err)
	h := db.hooks()
	recoverPage := h.Recover
	h.Recover = func(id PageID, have *page.Page) (*page.Page, bool, error) {
		c.repairedMu.Lock()
		c.repaired = append(c.repaired, id)
		c.repairedMu.Unlock()
		e, _ := db.pri.Get(id)
		archived := LSN(e.Backup.Loc) < db.log.TruncatedLSN()
		pg, own, err := recoverPage(id, have)
		if err == nil && !own && isCopy(e.Backup) {
			if archived {
				c.cov.add("repair resolved from a copy in an archive run")
			} else {
				c.cov.add("repair resolved from a copy in the live log")
			}
		}
		return pg, own, err
	}
	db.pool.SetHooks(h)
}

// cutCopies returns, for the crashed database, the page copies its index
// named whose records the crash cut, by page.
func cutCopies(db *DB) map[PageID]core.BackupRef {
	cut := make(map[PageID]core.BackupRef)
	stable := db.log.FlushedLSN()
	db.pri.ForEachRange(func(lo, hi PageID, e core.Entry) bool {
		if isCopy(e.Backup) && LSN(e.Backup.Loc) >= stable {
			for id := lo; id <= hi; id++ {
				cut[id] = e.Backup
			}
		}
		return true
	})
	return cut
}

// resolveCut has the restarted database repair, off a damaged slot, each
// page whose copy the crash cut: its index names another backup — the one
// the page had before the copy — and the read must rebuild the page from
// it, to the state check then holds against the model. The restarted log
// reuses the LSNs the crash cut, so a copy the restart's own drain took
// may sit where the cut one did; the backup the index names must read back
// either way.
func (c *checker) resolveCut(cut map[PageID]core.BackupRef) {
	c.db.DrainRestore()
	for _, id := range slices.Sorted(maps.Keys(cut)) {
		e, err := c.db.pri.Get(id)
		if err != nil {
			continue // the crash cut the page's allocation too
		}
		if _, err := c.db.res.FetchBackup(e.Backup, id); err != nil {
			c.fatalf("page %d: the restarted index names backup %+v, which does not read back: %v", id, e.Backup, err)
		}
		if e.Backup == cut[id] {
			continue // a new copy at the cut one's LSN
		}
		if c.db.EvictPage(id) != nil || c.db.CorruptPage(id) != nil {
			continue // pinned, or never written back: no slot to damage
		}
		c.faults.Add(1)
		before := c.db.Metrics().Pool.Recoveries
		h, err := c.db.pool.Fetch(id)
		if err != nil {
			c.fatalf("page %d, its copy cut by the crash, not repaired from backup %+v: %v", id, e.Backup, err)
		}
		h.Release()
		if c.db.Metrics().Pool.Recoveries == before {
			c.fatalf("page %d: a damaged slot was read without a repair", id)
		}
		c.cov.add("crash that cut a copy's record")
	}
}

// restart recovers from the pending crash and checks the result. For
// restore.complete it crashes again while the redo backlog drains and
// restarts once more.
func (c *checker) restart() {
	cr := c.crash
	c.crash = nil
	<-cr.done
	if cr.point == "restore.complete" {
		chaos.Arm(cr.point, cr.fireAt, func(chaos.Hit) {})
	}
	cut := cutCopies(c.db)
	ndb, rep, err := c.db.Restart()
	if err != nil {
		c.fatalf("restart after a crash at %s#%d: %v", cr.point, cr.fireAt, err)
	}
	last := rep // the restart whose queue the check drains
	if cr.point == "restore.complete" {
		for deadline := time.Now().Add(5 * time.Second); !chaos.Fired(cr.point) && time.Now().Before(deadline); {
			if m := ndb.Metrics().Restore; m.Pending+m.InFlight == 0 {
				break // the backlog drained before the point's hit
			}
			time.Sleep(100 * time.Microsecond)
		}
		if chaos.Fired(cr.point) {
			ndb.Crash()
			if ndb, last, err = ndb.Restart(); err != nil {
				c.fatalf("restart after a crash mid-drain: %v", err)
			}
		}
	}
	c.crashing.Store(false)
	c.use(ndb)
	fired := chaos.Fired(cr.point)
	for _, p := range []string{cr.point, "wal.crash", "restart.prep"} {
		if chaos.Fired(p) {
			c.cov.add("crash at " + p)
		}
	}
	if fired && cr.point == "wal.recycle" && !c.archive {
		c.cov.add("crash at wal.recycle without an archive")
	}
	if rep.Prep.PagesMarked > 0 {
		c.cov.add("restart that queued redo pages")
	}
	if cr.inflight && rep.Undo.LosersRolledBack > 0 {
		c.cov.add("crash that cut a user transaction with updates on both engines")
	}
	if len(rep.Analysis.Dropped) > 0 {
		c.cov.add("restart that dropped a system transaction")
	}
	c.resolveCut(cut)
	c.check(fmt.Sprintf("after a crash at %s#%d (fired %v)", cr.point, cr.fireAt, fired), slices.Collect(maps.Keys(last.Analysis.DPT)))
	chaos.Reset()
}

// media fails the device under an open transaction, whose commit must
// report it lost, and recovers from the latest full backup and the log.
func (c *checker) media() {
	tx := c.db.Begin()
	kk := k(c.s.intn(checkKeys))
	c.expect(c.write(tx, kk, c.value(c.s), c.lookup(nil, string(kk))))
	c.crashing.Store(true)
	c.db.FailDevice()
	if err := tx.Commit(); !errors.Is(err, ErrCommitLost) {
		c.fatalf("a commit across a device failure returned %v, want ErrCommitLost", err)
	}
	ndb, rep, err := c.db.RecoverMedia()
	if err != nil || rep.Media.PagesRestored == 0 {
		c.fatalf("media recovery: %v, %+v", err, rep)
	}
	c.faults.Store(0) // a new device: nothing retired, nothing injected
	clear(c.sticky)
	c.crashing.Store(false)
	c.use(ndb)
	c.check("after media recovery", ndb.Pages())
	if ndb.Metrics().Recovery.RecordsApplied > 0 {
		c.cov.add("media recovery that replayed log written after the backup")
	}
}

// check asserts the invariants: both engines equal the model on every key
// of the key space by Get and by a full Scan, the B-tree scans in key
// order, both verify clean, nothing escalated, no slot was retired beyond
// the device faults injected, and no B-tree operation held more than two
// latches. In a sequential run it also asserts that those reads repaired
// no page in queued — the pages the recovery just run handed to the
// restore queue — except one with a sticky fault: the drained queue has
// repaired them all, so a repair worker that completes a ticket without
// its repair shows here, and not only as a slower read. A page the
// recovery did not queue may still need a read to find it: one the
// schedule damaged, or one whose write-back's record the crash cut.
func (c *checker) check(phase string, queued []PageID) {
	c.tb.Helper()
	c.db.DrainRestore()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.repairedMu.Lock()
	c.repaired = c.repaired[:0]
	c.repairedMu.Unlock()
	recoveries := c.db.Metrics().Pool.Recoveries
	for _, ix := range []*Index{c.bt, c.hx} {
		for i := 0; i < checkKeys; i++ {
			want, ok := c.model[string(k(i))]
			if got, err := ix.Get(k(i)); ok != (err == nil) || !bytes.Equal(got, want) || !ok && !errors.Is(err, ErrNotFound) {
				c.fatalf("%s: %v key %q = %q, %v; acknowledged %q (%v)", phase, ix.Kind(), k(i), got, err, want, ok)
			}
		}
		n := 0
		err := scanInOrder(ix, func(e Entry) error {
			if want, ok := c.model[string(e.Key)]; !ok || !bytes.Equal(e.Value, want) {
				return fmt.Errorf("%q = %q; acknowledged %q (%v)", e.Key, e.Value, want, ok)
			}
			n++
			return nil
		})
		if err != nil || n != len(c.model) {
			c.fatalf("%s: %v scan returned %d entries, %v; %d acknowledged", phase, ix.Kind(), n, err, len(c.model))
		}
		if viols, err := ix.Verify(); err != nil || len(viols) != 0 {
			c.fatalf("%s: %v verify: %v %v", phase, ix.Kind(), viols, err)
		}
	}
	m := c.db.Metrics()
	if n := m.Pool.Recoveries - recoveries; c.sequential && n > 0 {
		c.repairedMu.Lock()
		var stale []PageID
		for _, id := range c.repaired {
			if slices.Contains(queued, id) && !c.sticky[id] {
				stale = append(stale, id)
			}
		}
		c.repairedMu.Unlock()
		if len(stale) > 0 {
			c.fatalf("%s: after the restore queue drained, reading every key repaired pages %v it held (%d recoveries in all); only a page with a sticky fault %v may need it",
				phase, stale, n, c.sticky)
		}
	}
	if m.Pool.Escalations != 0 || m.Recovery.Escalations != 0 {
		c.fatalf("%s: escalations: pool %d, recovery %d", phase, m.Pool.Escalations, m.Recovery.Escalations)
	}
	if int64(m.RetiredSlots) > c.faults.Load() {
		c.fatalf("%s: %d slots retired for %d device faults", phase, m.RetiredSlots, c.faults.Load())
	}
	if d := btree.MaxLatchDepth(); d > 2 {
		c.fatalf("%s: a B-tree operation held %d latches", phase, d)
	}
}

// scanInOrder scans the whole index, failing a B-tree scan that does not
// come back in key order, and passes each entry to visit, if set, until it
// returns an error.
func scanInOrder(ix *Index, visit func(Entry) error) error {
	var prev []byte
	var bad error
	err := ix.Scan(nil, nil, func(e Entry) bool {
		if ix.Kind() == KindBTree && prev != nil && bytes.Compare(prev, e.Key) >= 0 {
			bad = fmt.Errorf("B-tree scan returned %q after %q", e.Key, prev)
		} else if visit != nil {
			bad = visit(e)
		}
		prev = append(prev[:0], e.Key...)
		return bad == nil
	})
	if err != nil {
		return err
	}
	return bad
}

// closeAndCount checks, closes the database and fails if goroutines
// started since g0 outlive it.
func (c *checker) closeAndCount(g0 int) {
	c.tb.Helper()
	c.check("at the end", nil)
	if err := c.db.Close(); err != nil {
		c.fatalf("close: %v", err)
	}
	for deadline := time.Now().Add(3 * time.Second); runtime.NumGoroutine() > g0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > g0 {
		buf := make([]byte, 1<<16)
		c.fatalf("%d goroutines before, %d after close\n%s", g0, n, buf[:runtime.Stack(buf, true)])
	}
}

// sequentialRun shapes one sequential run: how many steps it takes, its
// first crash point, armed before the first step ("" draws it like the
// others), whether the archive is kept off whatever the schedule draws,
// and how often a page is copied.
type sequentialRun struct {
	steps       int
	first       string
	noArchive   bool
	backupEvery int // Options.BackupEveryNUpdates; 0 the default
}

// runSequential runs one schedule on one goroutine: run.steps steps, or
// until the fuzz bytes run out.
func runSequential(t *testing.T, s *schedule, cov *coverage, run sequentialRun) {
	defer chaos.Reset()
	btree.ResetMaxLatchDepth()
	g0 := runtime.NumGoroutine()
	archive := s.intn(4) != 0 && !run.noArchive
	c := newChecker(t, s, cov, archive, run.backupEvery)
	c.sequential = true
	c.load()
	key := func() int { return s.intn(checkKeys) }
	// Between two ops of a transaction, now and then, a fault or an admin
	// action. A flush or checkpoint makes the open transaction's updates
	// stable, so a crash then leaves a loser for restart to roll back.
	between := func() {
		if r := s.intn(8); r == 0 && c.crash == nil {
			c.fault()
		} else if r == 1 {
			c.admin(s.intn(4))
		}
	}
	// A fixed first crash point is armed before the first step rather than
	// at the first step that draws a crash: in 80 steps, about one seed in
	// 60 draws none. Without an archive nothing seals or writes a run.
	if run.first != "" && (archive || !strings.HasPrefix(run.first, "wal.archive.")) {
		c.armCrash(run.first)
	}
	for step := 0; step < run.steps && !s.over(); step++ {
		if c.crash != nil && c.landed() {
			c.restart()
		}
		switch r := s.intn(20); {
		case r < 2 && c.crash == nil:
			c.fault()
		case r < 4:
			c.admin(s.intn(4))
		case r == 4 && c.crash == nil:
			point := ""
			for point == "" || !archive && strings.HasPrefix(point, "wal.archive.") {
				point = crashPoints[s.intn(len(crashPoints))]
			}
			c.armCrash(point)
		case r == 5 && c.crash == nil:
			c.media()
		case r >= 6:
			applied, acked := c.transaction(s, key, between)
			if cr := c.crash; cr != nil {
				cr.inflight = cr.inflight || applied > 0 && !acked && c.crashing.Load()
				// Run what reaches the armed point: without an archive,
				// only a full backup recycles.
				which := map[string]int{"buffer.writeback": 3, "recovery.checkpoint": 1,
					"recovery.checkpoint.snapshot": 1, "wal.archive.seal": 2, "wal.archive.write": 2, "wal.recycle": 2}
				if w, ok := which[cr.point]; ok {
					if cr.point == "wal.recycle" && !archive {
						w = 0
					}
					c.admin(w)
				}
			}
		}
	}
	if c.crash != nil {
		c.crash.budget = 0
		c.landed()
		c.restart()
	}
	c.closeAndCount(g0)
}

// runConcurrent runs clients goroutines, each on its own stripe of the key
// space, beside a scanner and a fault injector that damages the pages of
// engine ("btree" or "hash"), in two rounds: the first ends in a crash at
// wal.publish, the second runs out. The model is exact here too: each
// client knows the verdict of each of its transactions.
func runConcurrent(t *testing.T, seed int64, cov *coverage, engine string) {
	defer chaos.Reset()
	btree.ResetMaxLatchDepth()
	g0 := runtime.NumGoroutine()
	c := newChecker(t, seeded(seed), cov, true, 0)
	// The archiver races the clients: a goroutine moves its clock one
	// archiver step (25 ms) every millisecond, through the crash and the
	// restart (the clock is carried over to the recovered database).
	clk := c.db.opts.clock
	quit, advancing := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(advancing)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				clk.Advance(25 * time.Millisecond)
			}
		}
	}()
	stopAdvancing := sync.OnceFunc(func() { close(quit); <-advancing })
	defer stopAdvancing()
	c.load()
	const clients = 4
	var classes []string // the page classes the injector aims at
	for _, class := range pageClasses {
		if strings.HasPrefix(class, engine+"/") {
			classes = append(classes, class)
		}
	}
	injected := make(map[string]int)
	for round := 0; round < 2; round++ {
		crash := round == 0
		if crash {
			// Re-armed past the first few transactions, so that the crash
			// finds every client mid-flight.
			c.armCrash("wal.publish")
			cr := c.crash
			cr.fireAt = 200 + int64(c.s.intn(400))
			chaos.Arm(cr.point, cr.fireAt, func(chaos.Hit) { c.signal(cr) })
		}
		var clientsWG, bgWG sync.WaitGroup
		var stop atomic.Bool
		for w := 0; w < clients; w++ {
			s := seeded(seed*1000 + int64(round*clients+w))
			clientsWG.Add(1)
			go func() {
				defer clientsWG.Done()
				stripe := func() int { return w + clients*s.intn(checkKeys/clients) }
				for i := 0; i < 60 && !c.crashing.Load(); i++ {
					c.transaction(s, stripe, nil)
				}
			}()
		}
		bgWG.Add(2)
		go func() { // the scanner: B-tree key order, and no error outside a crash
			defer bgWG.Done()
			for !stop.Load() {
				c.expect(scanInOrder(c.bt, nil))
				c.expect(scanInOrder(c.hx, nil))
			}
		}()
		var victims []PageID
		go func() { // the injector: one stored image of every class per pass
			defer bgWG.Done()
			rng := rand.New(rand.NewSource(seed))
			// The last round's injector outlasts its clients until every
			// class has been hit.
			for pass := 0; !stop.Load() || !crash && len(injected) < len(classes) && pass < 2000; pass++ {
				time.Sleep(500 * time.Microsecond)
				if c.crashing.Load() {
					continue
				}
				pages := c.classify(false)
				for _, class := range classes {
					ids := pages[class]
					if len(ids) == 0 {
						continue
					}
					id := ids[rng.Intn(len(ids))]
					if c.db.EvictPage(id) != nil || c.db.CorruptPage(id) != nil {
						continue // pinned by a client, or never written back
					}
					c.faults.Add(1)
					injected[class]++
					victims = append(victims, id)
				}
			}
		}()
		clientsWG.Wait()
		if crash {
			c.crash.budget = 0
			c.landed()
		}
		stop.Store(true)
		bgWG.Wait()
		if crash {
			c.restart()
			continue
		}
		// Every page the injector damaged reads back through the
		// validating read path, repaired if no client met it first.
		for _, id := range victims {
			c.expect(c.db.EvictPage(id))
			h, err := c.db.pool.Fetch(id)
			if err != nil {
				c.fatalf("injected page %d not repaired: %v", id, err)
			}
			h.Release()
		}
		if m := c.db.Metrics(); m.Pool.ValidationFailures == 0 || m.Pool.Recoveries == 0 {
			t.Errorf("no injected fault was detected and repaired: %+v", m.Pool)
		}
	}
	if len(injected) < len(classes) {
		t.Errorf("the injector damaged %s pages of %v only", engine, injected)
	}
	stopAdvancing()
	t.Logf("%d archive runs", c.db.Metrics().Archive.Runs)
	c.closeAndCount(g0)
	if d := btree.MaxLatchDepth(); d != 2 {
		t.Errorf("B-tree latch depth high-water mark = %d, want 2: latch coupling never paired latches", d)
	}
}

// chaosSeeds returns the seed set: CHAOS_SEEDS (comma-separated integers)
// when set, else 1 to len(crashPoints), and whether it is the default. The
// first crash of seed s is at crashPoints[s mod len(crashPoints)], so the
// default seeds reach every point.
func chaosSeeds(t *testing.T) ([]int64, bool) {
	t.Helper()
	env := os.Getenv("CHAOS_SEEDS")
	if env == "" {
		seeds := make([]int64, len(crashPoints))
		for i := range seeds {
			seeds[i] = int64(i + 1)
		}
		return seeds, true
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEEDS: %v", err)
		}
		seeds = append(seeds, n)
	}
	return seeds, false
}

// The checker's entry points keep the names of the suites it replaced, so
// that a seed that failed under one of them reproduces under the same name.

// TestChaosTortureCrashRestartVerify runs the sequential checker on every
// seed, its first crash at crashPoints[seed mod len(crashPoints)], and over
// the default seeds, with the fixed-seed runs below, fails unless coverage
// holds.
func TestChaosTortureCrashRestartVerify(t *testing.T) {
	seeds, byDefault := chaosSeeds(t)
	cov := &coverage{}
	ran := 0
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			first := crashPoints[int(seed)%len(crashPoints)]
			checked(t, func() { runSequential(t, seeded(seed), cov, sequentialRun{steps: 80, first: first}) })
			ran++
		})
	}
	if !byDefault {
		return
	}
	// Seed 1's crash at a system commit falls inside a user transaction
	// after one of its ops reached both engines: the crash takes the
	// database down with that op stable, and restart must roll the
	// transaction back. Up to the first crash a sequential run is the same
	// on every scheduler, so the seed alone decides this; a crash at
	// wal.publish, by contrast, races the transaction it cuts.
	t.Run("cut-transaction", func(t *testing.T) {
		checked(t, func() { runSequential(t, seeded(1), cov, sequentialRun{steps: 80, first: "txn.syscommit"}) })
		ran++
	})
	// Page copies, taken after every two updates: within 30 steps, before
	// any crash, seed 54 repairs pages from copies the live log holds and
	// from copies an archiver pass moved into a run. With a copy at every
	// write-back and every repair, seed 124's first crash, made by hand
	// between two steps, cuts a copy's record in the log's volatile tail,
	// and the restarted database must rebuild that page from its previous
	// backup.
	t.Run("page-copies", func(t *testing.T) {
		checked(t, func() { runSequential(t, seeded(54), cov, sequentialRun{steps: 30, backupEvery: 2}) })
		ran++
	})
	t.Run("cut-copy", func(t *testing.T) {
		checked(t, func() {
			runSequential(t, seeded(124), cov, sequentialRun{steps: 20, first: "restore.complete", backupEvery: 1})
		})
		ran++
	})
	if ran == len(seeds)+3 {
		cov.assert(t, sequentialCoverage()...)
	}
}

// TestChaosTortureWithoutArchive runs the sequential checker with the
// archive off on the seeds whose first crash is at wal.recycle: the only
// recycle is then the one a full backup makes, so the crash lands between
// that backup's checkpoint and its truncation of the live log.
func TestChaosTortureWithoutArchive(t *testing.T) {
	seeds, _ := chaosSeeds(t)
	for _, seed := range seeds {
		if crashPoints[int(seed)%len(crashPoints)] != "wal.recycle" {
			continue
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cov := &coverage{}
			checked(t, func() {
				runSequential(t, seeded(seed), cov, sequentialRun{steps: 80, first: "wal.recycle", noArchive: true})
			})
			if cov.n["crash at wal.recycle without an archive"] == 0 {
				t.Errorf("the crash never landed at wal.recycle: %v", cov.n)
			}
		})
	}
}

// TestEngineDifferentialModel runs longer sequential schedules, every crash
// point drawn, on fixed seeds whatever CHAOS_SEEDS says, so that a plain
// test run, with -race or without, checks both engines against the model
// and each other.
func TestEngineDifferentialModel(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checked(t, func() { runSequential(t, seeded(seed), &coverage{}, sequentialRun{steps: 200}) })
		})
	}
}

// TestConcurrentOpsWithInjectedPageFaults runs the concurrent checker on
// every seed, once with the injector aimed at each engine's pages. Whether
// its crash cuts a transaction mid-flight is up to the scheduler, so the
// coverage of that event is demanded of the sequential checker instead.
func TestConcurrentOpsWithInjectedPageFaults(t *testing.T) {
	seeds, _ := chaosSeeds(t)
	for _, engine := range []string{"btree", "hash"} {
		t.Run(engine, func(t *testing.T) {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					checked(t, func() { runConcurrent(t, seed, &coverage{}, engine) })
				})
			}
		})
	}
}

// FuzzChecker runs the sequential checker over schedules drawn from the
// fuzz bytes.
func FuzzChecker(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		b := make([]byte, 96)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checked(t, func() {
			runSequential(t, &schedule{data: data[:min(len(data), 1024)]}, &coverage{}, sequentialRun{steps: 200})
		})
	})
}
