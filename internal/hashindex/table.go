package hashindex

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/pageop"
	"repro/internal/txn"
)

// ops is the log-then-apply protocol bound to pageop.Apply: every op the
// hash index logs is a shared op (internal/pageop), so the index has no
// opcodes and no applier of its own. The discipline is the B-tree's
// (§5.1.2): redo is physical and always forward; undo of user ops is
// logical through a fresh descent (Compensate), for a split may have moved
// the key to another bucket; a structural change — a bucket split's
// rewrites, overflow linking, directory updates, logged as pageop.Replace —
// is its redo alone, for system transactions are redo-only.
var ops = pageop.Ops{Apply: pageop.Apply}

// Pager abstracts what the table needs from the engine — the same three
// operations the B-tree needs (page allocation with format logging and
// recovery-index registration, validating fetch, system transactions), so
// one *spf.DB serves both engines.
type Pager interface {
	AllocateNode(t *txn.Txn, typ page.Type, initialPayload []byte) (*buffer.Handle, error)
	Fetch(id page.ID) (*buffer.Handle, error)
	BeginSystem() *txn.Txn
}

// Table is a linear-hashing index over a Pager.
//
// Concurrency is per bucket chain: every operation reads the directory
// under a shared latch and latches the primary bucket page BEFORE the
// directory latch drops (the crab), so a concurrent split — which holds
// the directory exclusively and then the whole chain it rewrites — can
// never slip between address computation and bucket access. Readers walk
// overflow chains hand-over-hand with shared latches; writers accumulate
// exclusive latches down the chain (kept short by splitting until the
// one-page directory is full, see descendX).
// The latch order is directory < chain position 0 < 1 < ... everywhere, so
// the protocol is deadlock-free.
type Table struct {
	name  string
	dir   page.ID
	pager Pager

	// Cumulative structural-change counters.
	splits    atomic.Int64 // bucket split rounds completed
	overflows atomic.Int64 // overflow pages linked into chains

	// owed counts the split rounds chain extensions made due that have not
	// run yet (see trySplit).
	owed atomic.Int64
}

// maxAttempts bounds the retry loops of the write operations. Each retry
// either fits, reclaims ghosts, relocates an entry, or extends the chain,
// so non-adversarial workloads converge within a handful of attempts.
const maxAttempts = 64

// Create builds a new empty table: a directory page at round level 1 over
// two empty buckets. The caller supplies the transaction under which the
// format records are logged (typically a system transaction); the
// directory stays latched until it ends.
func Create(t *txn.Txn, name string, pager Pager) (*Table, error) {
	// The directory is allocated first so the bucket pages can carry its
	// ID as their back-pointer; its final payload (naming the buckets) is
	// then installed with a logged page rewrite.
	bootstrap := newDirectoryPayload(1, 0, nil)
	dh, err := pager.AllocateNode(t, page.TypeHash, bootstrap)
	if err != nil {
		return nil, fmt.Errorf("hashindex: creating %q: %w", name, err)
	}
	dirID := dh.ID()
	var buckets []page.ID
	for b := uint32(0); b < 2; b++ {
		bh, err := pager.AllocateNode(t, page.TypeHash,
			page.NewRecords(page.KindBucket, bucketExt(b, 1, dirID, page.InvalidID, 0)))
		if err != nil {
			dh.Release()
			return nil, fmt.Errorf("hashindex: creating %q: %w", name, err)
		}
		buckets = append(buckets, bh.ID())
		bh.Release()
	}
	// The directory stays latched until t ends: a page a system transaction
	// changed leaves the pool only behind its end record, and an abort puts
	// it back under its latch.
	dh.Lock()
	t.AtEnd(func() {
		dh.Unlock()
		dh.Release()
	})
	if err := ops.LogApply(t, dh, pageop.EncodeReplace(newDirectoryPayload(1, 0, buckets))); err != nil {
		return nil, fmt.Errorf("hashindex: creating %q: %w", name, err)
	}
	return &Table{name: name, dir: dirID, pager: pager}, nil
}

// Open attaches to an existing table whose directory page is dir.
func Open(name string, dir page.ID, pager Pager) *Table {
	return &Table{name: name, dir: dir, pager: pager}
}

// Name returns the table's name.
func (tb *Table) Name() string { return tb.name }

// Root returns the directory page ID (stable for the life of the table).
func (tb *Table) Root() page.ID { return tb.dir }

// Counters reports cumulative structural changes: bucket split rounds and
// overflow pages linked.
func (tb *Table) Counters() (bucketSplits, overflowPages int64) {
	return tb.splits.Load(), tb.overflows.Load()
}

// dirView is the directory state one operation descends under, copied out
// while the directory latch was held.
type dirView struct {
	id    page.ID
	level uint32
	next  uint32
}

// fetchDir pins the directory page, latches it shared, and parses its
// header. The caller releases latch and pin; the returned view is valid
// only until then.
func (tb *Table) fetchDir() (*buffer.Handle, directory, error) {
	dh, err := tb.pager.Fetch(tb.dir)
	if err != nil {
		return nil, directory{}, err
	}
	dh.RLock()
	d, err := parseDirectory(dh.Page().Payload())
	if err != nil {
		dh.RUnlock()
		dh.Release()
		return nil, directory{}, err
	}
	return dh, d, nil
}

// checkBucket runs the cross-checks on one parsed chain page against the
// expectations its predecessors predict: the directory slot that routed
// here (bucket number, level stamps, back-pointer) and the previous chain
// page (position). These are the hash rendering of the B-tree's §4.2
// fence checks, and like them they compare in-page redundancy against a
// still-latched predecessor.
func checkBucket(id, via page.ID, n *bucket, b int, pos uint32, dv dirView) error {
	s := n.levelStamp
	// Round-position consistency: a bucket already split this round (or
	// created by this round's splits) must be stamped level+1; a bucket
	// still awaiting its split must not be.
	split := uint32(b) < dv.next || uint64(b) >= uint64(1)<<dv.level
	detail := ""
	switch {
	case n.bucketNum != uint32(b):
		detail = fmt.Sprintf("bucket number stamp %d, directory slot %d", n.bucketNum, b)
	case n.dir != dv.id:
		detail = fmt.Sprintf("directory back-pointer %d, expected %d", n.dir, dv.id)
	case n.chainPos != pos:
		detail = fmt.Sprintf("overflow chain position %d, expected %d", n.chainPos, pos)
	case n.next == id:
		detail = "overflow pointer to self"
	case s == 0 || s > dv.level+1:
		detail = fmt.Sprintf("level stamp %d outside round level %d", s, dv.level)
	case uint64(b) >= uint64(1)<<s:
		detail = fmt.Sprintf("bucket number %d not addressable at level stamp %d", b, s)
	case split && s != dv.level+1:
		detail = fmt.Sprintf("split bucket stamped level %d in round %d", s, dv.level)
	case !split && s > dv.level:
		detail = fmt.Sprintf("unsplit bucket stamped level %d in round %d", s, dv.level)
	default:
		return nil
	}
	return &CorruptionError{Page: id, Via: via, Detail: detail}
}

// checkedBucket parses and cross-checks the latched chain page behind h,
// reached through via (the directory, or the previous chain page).
func checkedBucket(h *buffer.Handle, via page.ID, b int, pos uint32, dv dirView) (bucket, error) {
	if typ := h.Page().Type(); typ != page.TypeHash {
		return bucket{}, &CorruptionError{Page: h.ID(), Via: via, Detail: fmt.Sprintf(
			"page type %v, expected hash", typ)}
	}
	n, err := parseBucket(h.Page().Payload())
	if err != nil {
		return bucket{}, err
	}
	if err := checkBucket(h.ID(), via, &n, b, pos, dv); err != nil {
		return bucket{}, err
	}
	return n, nil
}

// GetTo is Get appending the value to dst: a shared-latch hand-over-hand
// walk of the bucket chain, cross-checking every page on the way.
func (tb *Table) GetTo(dst, key []byte) ([]byte, error) {
	if len(key) == 0 {
		return dst, fmt.Errorf("%w: empty key", ErrKeyNotFound)
	}
	dh, d, err := tb.fetchDir()
	if err != nil {
		return dst, err
	}
	b := d.bucketOf(hashKey(key))
	dv := dirView{id: dh.ID(), level: d.level, next: d.next}
	h, err := tb.pager.Fetch(d.At(b))
	if err != nil {
		dh.RUnlock()
		dh.Release()
		return dst, err
	}
	// Crab: the primary bucket is latched before the directory latch
	// drops, so a concurrent split cannot intervene.
	h.RLock()
	dh.RUnlock()
	dh.Release()
	for pos, via := uint32(0), dv.id; ; pos++ {
		n, err := checkedBucket(h, via, b, pos, dv)
		if err != nil {
			h.RUnlock()
			h.Release()
			return dst, err
		}
		val, ghost, found, err := n.Get(key)
		nextID := n.next
		if err == nil && (ghost || (!found && nextID == page.InvalidID)) {
			err = fmt.Errorf("%w: %q", ErrKeyNotFound, key)
		}
		if found || err != nil {
			if err == nil {
				// Copied out under the latch: val aliases the page.
				dst = append(dst, val...)
			}
			h.RUnlock()
			h.Release()
			return dst, err
		}
		nh, err := tb.pager.Fetch(nextID)
		if err != nil {
			h.RUnlock()
			h.Release()
			return dst, err
		}
		nh.RLock()
		h.RUnlock()
		h.Release()
		via, h = h.ID(), nh
	}
}

// Get returns the value for key, or ErrKeyNotFound.
func (tb *Table) Get(key []byte) ([]byte, error) { return tb.GetTo(nil, key) }

// chainInline is how many chain pages a chainRef holds without allocating.
// The directory's one-page bound lets chains grow past it (see splitOnce),
// so the rest go to overflow slices.
const chainInline = 8

// chainRef is a writer's exclusively latched bucket chain: every page from
// the primary bucket to the chain tail, pinned and X-latched in position
// order, plus the directory view it was routed under. The first
// chainInline pages live in fixed arrays, not in slices pointing into the
// struct (which would make it escape), so a chainRef declared on the
// caller's stack costs no allocation per descent.
type chainRef struct {
	bucket int
	dv     dirView
	n      int
	hs     [chainInline]*buffer.Handle
	ns     [chainInline]bucket
	moreH  []*buffer.Handle // pages chainInline and beyond
	moreN  []bucket
}

// push appends the next chain page.
func (c *chainRef) push(h *buffer.Handle, n bucket) {
	if c.n < chainInline {
		c.hs[c.n], c.ns[c.n] = h, n
	} else {
		c.moreH = append(c.moreH, h)
		c.moreN = append(c.moreN, n)
	}
	c.n++
}

// handle returns chain page i's handle.
func (c *chainRef) handle(i int) *buffer.Handle {
	if i < chainInline {
		return c.hs[i]
	}
	return c.moreH[i-chainInline]
}

// node returns chain page i's parsed header.
func (c *chainRef) node(i int) *bucket {
	if i < chainInline {
		return &c.ns[i]
	}
	return &c.moreN[i-chainInline]
}

// release drops every latch and pin, tail first.
func (c *chainRef) release() {
	for i := c.n - 1; i >= 0; i-- {
		h := c.handle(i)
		h.Unlock()
		h.Release()
	}
	*c = chainRef{}
}

// find locates key anywhere in the chain, returning the index of the page
// holding it (-1 when absent) and the entry's value (aliasing that page)
// and ghost flag.
func (c *chainRef) find(key []byte) (pi int, val []byte, ghost bool, err error) {
	for pi := 0; pi < c.n; pi++ {
		val, ghost, found, err := c.node(pi).Get(key)
		if found || err != nil {
			return pi, val, ghost, err
		}
	}
	return -1, nil, false, nil
}

// roomFor returns the first chain page other than skip with need free
// bytes, or -1.
func (c *chainRef) roomFor(need, skip int) int {
	for i := 0; i < c.n; i++ {
		if i != skip && c.node(i).Size()+need <= c.handle(i).Page().Capacity() {
			return i
		}
	}
	return -1
}

// latchChain X-latches into c the chain whose primary page h the caller
// has pinned and X-latched, cross-checking every page against c's
// directory view. On failure every latch and pin is dropped.
func (tb *Table) latchChain(c *chainRef, h *buffer.Handle) error {
	for pos, via := uint32(0), c.dv.id; ; pos++ {
		n, err := checkedBucket(h, via, c.bucket, pos, c.dv)
		if err != nil {
			h.Unlock()
			h.Release()
			c.release()
			return err
		}
		c.push(h, n)
		if n.next == page.InvalidID {
			return nil
		}
		nh, err := tb.pager.Fetch(n.next)
		if err != nil {
			c.release()
			return err
		}
		nh.Lock()
		via, h = h.ID(), nh
	}
}

// descendX routes to key's bucket and exclusively latches its whole chain
// into c, cross-checking every page. Writers hold the full chain because
// an insert may land on any page with room and a relocation touches two
// pages. Growth splits buckets only while the directory page has room for
// another slot; past that bound (506 buckets on a 4 KiB page) chains
// absorb all growth and lengthen with the table.
func (tb *Table) descendX(key []byte, c *chainRef) error {
	if tb.owed.Load() > 0 {
		tb.payOwed()
	}
	dh, d, err := tb.fetchDir()
	if err != nil {
		return err
	}
	b := d.bucketOf(hashKey(key))
	*c = chainRef{bucket: b, dv: dirView{id: dh.ID(), level: d.level, next: d.next}}
	h, err := tb.pager.Fetch(d.At(b))
	if err != nil {
		dh.RUnlock()
		dh.Release()
		return err
	}
	h.Lock()
	dh.RUnlock()
	dh.Release()
	return tb.latchChain(c, h)
}

// Insert adds key=val under tx. Inserting an existing live key fails with
// ErrKeyExists; inserting over a ghost revives it.
func (tb *Table) Insert(tx *txn.Txn, key, val []byte) error {
	if len(key) == 0 {
		return errors.New("hashindex: empty key")
	}
	grew := false
	var c chainRef
	for attempt := 0; ; attempt++ {
		if attempt > maxAttempts {
			return errors.New("hashindex: insert did not converge")
		}
		if err := tb.descendX(key, &c); err != nil {
			return err
		}
		capacity := c.handle(0).Page().Capacity()
		es := page.RecordSize(len(key), len(val))
		if es > maxEntrySize(capacity) {
			c.release()
			return fmt.Errorf("%w: %d bytes", ErrValueTooLarge, es)
		}
		pi, old, ghost, err := c.find(key)
		if err != nil {
			c.release()
			return err
		}
		if pi >= 0 && !ghost {
			c.release()
			return fmt.Errorf("%w: %q", ErrKeyExists, key)
		}
		if pi >= 0 && c.node(pi).Size()-len(old)+len(val) > capacity {
			// The revival value does not fit over the ghost: relocate the
			// ghost, as a growing update relocates its entry, and retry
			// there. The ghost moves rather than goes, for the rollback of
			// the delete that left it may revive it (txn.Txn.HoldGhost);
			// makeRoom purges it if no transaction holds it.
			extended, err := tb.relocate(&c, pi, key, old, true, es, true)
			if err != nil {
				return err
			}
			grew = grew || extended
			continue
		}
		if pi < 0 {
			// Absent: the first chain page with room takes it.
			pi = c.roomFor(es, -1)
		}
		if pi >= 0 {
			err := ops.LogInsert(tx, c.handle(pi), tb.dir, key, val, ghost, old)
			c.release()
			if err == nil && grew {
				tb.trySplit()
			}
			return err
		}
		extended, err := tb.makeRoom(&c, es, true)
		if err != nil {
			return err
		}
		grew = grew || extended
	}
}

// Update replaces the value of an existing live key under tx.
func (tb *Table) Update(tx *txn.Txn, key, val []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("%w: empty key", ErrKeyNotFound)
	}
	grew := false
	var c chainRef
	for attempt := 0; ; attempt++ {
		if attempt > maxAttempts {
			return errors.New("hashindex: update did not converge")
		}
		if err := tb.descendX(key, &c); err != nil {
			return err
		}
		capacity := c.handle(0).Page().Capacity()
		es := page.RecordSize(len(key), len(val))
		if es > maxEntrySize(capacity) {
			c.release()
			return fmt.Errorf("%w: %d bytes", ErrValueTooLarge, es)
		}
		pi, old, ghost, err := c.find(key)
		if err != nil {
			c.release()
			return err
		}
		if pi < 0 || ghost {
			c.release()
			return fmt.Errorf("%w: %q", ErrKeyNotFound, key)
		}
		// old aliases the page; every op encoder below copies it out before
		// its op applies.
		if c.node(pi).Size()-len(old)+len(val) <= capacity {
			err := ops.LogApply(tx, c.handle(pi), pageop.EncodeUpdate(tb.dir, key, val, old))
			c.release()
			if err == nil && grew {
				tb.trySplit()
			}
			return err
		}
		// The grown value does not fit in place: relocate the entry (with
		// its OLD value — no logical change, so a system transaction) to a
		// page with room for the new size, then retry there.
		extended, err := tb.relocate(&c, pi, key, old, false, es, true)
		if err != nil {
			return err
		}
		grew = grew || extended
	}
}

// relocate makes room for key's entry, now holding val, to grow to es
// bytes: it moves the entry unchanged — no logical change, so under a
// system transaction — to a page of its chain with room for es, or, with
// no such page, makes room in the chain (makeRoom, which reclaims ghosts
// only with purge). Consumes c; the caller re-descends. Reports whether the
// chain was extended.
func (tb *Table) relocate(c *chainRef, pi int, key, val []byte, ghost bool, es int, purge bool) (bool, error) {
	target := c.roomFor(es, pi)
	if target < 0 {
		return tb.makeRoom(c, es, purge)
	}
	// The purge splices val's bytes away: build the reinsert first.
	reinsert := pageop.EncodeReinsert(key, val, ghost)
	st := tb.pager.BeginSystem()
	err := ops.LogApply(st, c.handle(pi), pageop.EncodePurge(key))
	if err == nil {
		err = ops.LogApply(st, c.handle(target), reinsert)
	}
	err = st.End(err) // before the latches go (see pageop.Ops.LogApply)
	c.release()
	return false, err
}

// Delete logically deletes key under tx by turning its record into a ghost
// (§5.1.5); a later system transaction reclaims the space.
func (tb *Table) Delete(tx *txn.Txn, key []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("%w: empty key", ErrKeyNotFound)
	}
	var c chainRef
	if err := tb.descendX(key, &c); err != nil {
		return err
	}
	pi, _, ghost, err := c.find(key)
	if err != nil {
		c.release()
		return err
	}
	if pi < 0 || ghost {
		c.release()
		return fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	err = ops.LogApply(tx, c.handle(pi), pageop.EncodeGhost(tb.dir, key, true, false))
	c.release()
	return err
}

// makeRoom makes space in a chain none of whose pages can take need more
// bytes: with purge, ghosts are reclaimed first (cheaper); otherwise the
// chain grows by one empty overflow page. Consumes c (released once the
// system transaction has committed); the caller re-descends. Reports
// whether the chain was extended — the split trigger.
func (tb *Table) makeRoom(c *chainRef, need int, purge bool) (bool, error) {
	var st *txn.Txn
	sys := func() *txn.Txn {
		if st == nil {
			st = tb.pager.BeginSystem()
		}
		return st
	}
	purged := 0
	var err error
	for i := 0; purge && i < c.n && err == nil; i++ {
		var n int
		n, err = ops.PurgeGhosts(c.handle(i), sys)
		purged += n
	}
	if st != nil {
		err = st.End(err) // before the latches go (see pageop.Ops.LogApply)
	}
	if purged > 0 || err != nil {
		c.release()
		return false, err
	}
	// No ghosts to reclaim: link one empty overflow page to the tail. The
	// allocation and the link commit independently of the caller's
	// transaction (system txn), exactly like a B-tree foster split — an
	// aborted user insert then merely leaves an empty page behind.
	last := c.n - 1
	tail := *c.node(last)
	st = tb.pager.BeginSystem()
	nh, err := tb.pager.AllocateNode(st, page.TypeHash, page.NewRecords(page.KindBucket,
		bucketExt(tail.bucketNum, tail.levelStamp, c.dv.id, page.InvalidID, tail.chainPos+1)))
	if err == nil {
		newID := nh.ID()
		nh.Release()
		// The tail's new image differs only in its next stamp.
		linked := append([]byte(nil), c.handle(last).Page().Payload()...)
		copy(linked[page.LayoutHeaderSize:], bucketExt(tail.bucketNum, tail.levelStamp, tail.dir, newID, tail.chainPos))
		err = ops.LogApply(st, c.handle(last), pageop.EncodeReplace(linked))
	}
	err = st.End(err) // before the latches go (see pageop.Ops.LogApply)
	c.release()
	if err != nil {
		return false, err
	}
	tb.overflows.Add(1)
	return true, nil
}

// Compensate performs the logical compensation of user op u during
// rollback, logging u.Compensation as a CLR whose undo-next is undoNext: a
// fresh descent finds the key wherever splits or relocations moved it. The
// old value an update undo restores may no longer fit where other
// transactions filled the room its shrinking freed, and rollback must not
// fail, so the entry is relocated the way a growing update relocates it —
// reclaiming no ghost, which its own rollback may have yet to revive — and
// the compensation retried.
func (tb *Table) Compensate(t *txn.Txn, u pageop.UserOp, undoNext page.LSN) error {
	var c chainRef
	for attempt := 0; ; attempt++ {
		if attempt > maxAttempts {
			return errors.New("hashindex: compensation did not converge")
		}
		if err := tb.descendX(u.Key, &c); err != nil {
			return err
		}
		pi, curVal, ghost, err := c.find(u.Key)
		if err != nil {
			c.release()
			return err
		}
		if pi < 0 {
			c.release()
			return fmt.Errorf("hashindex: compensation target %q vanished: %w", u.Key, ErrKeyNotFound)
		}
		// curVal aliases the page; the op encoder copies it before it applies.
		op, grow := u.Compensation(curVal)
		if c.node(pi).Size()+grow <= c.handle(pi).Page().Capacity() {
			err := ops.LogApplyCLR(t, c.handle(pi), op, undoNext)
			c.release()
			return err
		}
		if _, err := tb.relocate(&c, pi, u.Key, curVal, ghost, page.RecordSize(len(u.Key), len(curVal)+grow), false); err != nil {
			return err
		}
	}
}

// Scan visits all live entries with start <= key < end (nil end =
// unbounded) in BUCKET order — within one bucket entries are sorted by
// key, but across buckets the order follows the hash, not the key. fn is
// called without any latch held (each chain's entries are copied out under
// hand-over-hand shared latches first) until it returns false.
func (tb *Table) Scan(start, end []byte, fn func(key, val []byte) bool) error {
	for b := 0; ; b++ {
		dh, d, err := tb.fetchDir()
		if err != nil {
			return err
		}
		if b >= d.Len() {
			dh.RUnlock()
			dh.Release()
			return nil
		}
		dv := dirView{id: dh.ID(), level: d.level, next: d.next}
		h, err := tb.pager.Fetch(d.At(b))
		if err != nil {
			dh.RUnlock()
			dh.Release()
			return err
		}
		h.RLock()
		dh.RUnlock()
		dh.Release()

		var ents []entry
		for pos, via := uint32(0), dv.id; ; pos++ {
			n, err := checkedBucket(h, via, b, pos, dv)
			if err != nil {
				h.RUnlock()
				h.Release()
				return err
			}
			if err := collectEntries(&n, start, end, false, &ents); err != nil {
				h.RUnlock()
				h.Release()
				return err
			}
			nextID := n.next
			if nextID == page.InvalidID {
				h.RUnlock()
				h.Release()
				break
			}
			nh, err := tb.pager.Fetch(nextID)
			if err != nil {
				h.RUnlock()
				h.Release()
				return err
			}
			nh.RLock()
			h.RUnlock()
			h.Release()
			via, h = h.ID(), nh
		}
		sort.Slice(ents, func(i, j int) bool { return bytes.Compare(ents[i].key, ents[j].key) < 0 })
		for _, e := range ents {
			if !fn(e.key, e.val) {
				return nil
			}
		}
	}
}

// trySplit owes the table one bucket split round and runs the rounds owed.
// A round never waits for the directory latch: when another thread holds
// it — a reader, or a write-back of the directory page — the round stays
// owed, and the next writer to descend runs it first. The rounds therefore
// follow the chain extensions, not who held the directory when, and a
// load lays out the same pages with background write-back or without.
func (tb *Table) trySplit() {
	tb.owed.Add(1)
	tb.payOwed()
}

// payOwed runs the split rounds owed while the directory latch is free.
// Errors are dropped like B-tree adoption failures, the round with them:
// real corruption resurfaces through the descent cross-checks.
func (tb *Table) payOwed() {
	for busy := 0; tb.owed.Load() > 0; {
		err := tb.splitOnce()
		if err == errDirectoryBusy {
			// Shared holders hold the latch briefly: yield to them a few
			// times before leaving the round to the next writer.
			if busy++; busy > yieldsPerRound {
				return
			}
			runtime.Gosched()
			continue
		}
		tb.owed.Add(-1)
		if err != nil {
			return
		}
	}
}

// yieldsPerRound bounds how often a writer that owes a split round yields
// the processor to the directory latch's shared holders.
const yieldsPerRound = 8

// errDirectoryBusy reports a split round that found the directory latched.
var errDirectoryBusy = errors.New("hashindex: directory latched")

// splitOnce performs one linear-hashing split: bucket N (the round
// pointer) redistributes its entries between itself and the new bucket
// 2^L + N under the next round's hash, all within one system transaction
// holding the directory and the whole chain exclusively. Ghost entries
// ride along so in-flight logical undo still finds its targets. The
// rewritten chain keeps every page (empty pages allowed — chains never
// shrink mid-split), so concurrent descents blocked on the primary bucket
// resume against a structurally identical chain.
func (tb *Table) splitOnce() error {
	dh, err := tb.pager.Fetch(tb.dir)
	if err != nil {
		return err
	}
	defer dh.Release()
	// The round waits for no one: with the directory latched elsewhere it
	// stays owed (see trySplit).
	if !dh.TryLock() {
		return errDirectoryBusy
	}
	d, err := parseDirectory(dh.Page().Payload())
	if err != nil {
		dh.Unlock()
		return err
	}
	// Directory growth bound: once the grown table no longer fits the
	// directory page, chains absorb all further growth.
	if len(dh.Page().Payload())+8 > dh.Page().Capacity() || d.Len() == page.MaxIDArrayLen {
		dh.Unlock()
		return nil
	}
	// parseDirectory established that slot 2^level + next is the next free.
	oldB := int(d.next)
	newB := d.Len()
	dv := dirView{id: dh.ID(), level: d.level, next: d.next}
	newStamp := d.level + 1

	// Latch the split bucket's whole chain in position order under the
	// directory latch.
	c := chainRef{bucket: oldB, dv: dv}
	h, err := tb.pager.Fetch(d.At(oldB))
	if err != nil {
		dh.Unlock()
		return err
	}
	h.Lock()
	if err := tb.latchChain(&c, h); err != nil {
		dh.Unlock()
		return err
	}
	fail := func(err error) error {
		c.release()
		dh.Unlock()
		return err
	}

	// Partition every entry (ghosts included) under the next round's
	// hash: bit L decides stay vs move.
	var all, stay, move []entry
	for i := 0; i < c.n; i++ {
		if err := collectEntries(c.node(i), nil, nil, true, &all); err != nil {
			return fail(err)
		}
	}
	mask := uint64(1)<<(d.level+1) - 1
	for _, e := range all {
		switch int(hashKey(e.key) & mask) {
		case oldB:
			stay = append(stay, e)
		case newB:
			move = append(move, e)
		default:
			return fail(&CorruptionError{Page: c.handle(0).ID(), Detail: fmt.Sprintf(
				"entry %q does not hash to bucket %d", e.key, oldB)})
		}
	}
	capacity := c.handle(0).Page().Capacity()
	stayPages := packEntries(stay, capacity)
	movePages := packEntries(move, capacity)
	for len(stayPages) < c.n {
		stayPages = append(stayPages, nil)
	}

	st := tb.pager.BeginSystem()
	abort := func(err error) error {
		// Abort before the latches go: it puts back the pages already
		// rewritten, under their latches (see pageop.Ops.LogApply).
		_ = st.Abort()
		c.release()
		dh.Unlock()
		return err
	}
	// The new bucket's chain, allocated tail-first so each page's next
	// pointer is known at format time.
	newChain, err := tb.allocChain(st, capacity, movePages, uint32(newB), newStamp, dv.id)
	if err != nil {
		return abort(err)
	}
	// Extra pages for the stay chain, should repacking need more room
	// than the existing pages offer (entries are not order-preserving
	// across chain pages, so repacking can shift the split).
	var extraFirst page.ID
	if len(stayPages) > c.n {
		extra, err := tb.allocChainAt(st, capacity, stayPages[c.n:], uint32(oldB), newStamp,
			dv.id, uint32(c.n))
		if err != nil {
			return abort(err)
		}
		extraFirst = extra
	}
	// Rewrite the existing chain pages in place: new stamps, repacked
	// entries, links preserved (tail links to the extras when present).
	for i := 0; i < c.n; i++ {
		next := page.InvalidID
		if i+1 < c.n {
			next = c.handle(i + 1).ID()
		} else if extraFirst != page.InvalidID {
			next = extraFirst
		}
		nn, err := bucketPayload(capacity, bucketExt(uint32(oldB), newStamp, dv.id, next, uint32(i)), stayPages[i])
		if err != nil {
			return abort(err)
		}
		if err := ops.LogApply(st, c.handle(i), pageop.EncodeReplace(nn)); err != nil {
			return abort(err)
		}
	}
	// Advance the directory: install the new bucket and move the round
	// pointer (rolling the level over when the round completes).
	level, next := d.level, d.next+1
	if uint64(next) == uint64(1)<<level {
		level, next = level+1, 0
	}
	nd := newDirectoryPayload(level, next, append(d.buckets(), newChain))
	if err := ops.LogApply(st, dh, pageop.EncodeReplace(nd)); err != nil {
		return abort(err)
	}
	if err := st.Commit(); err != nil {
		return abort(err)
	}
	c.release()
	dh.Unlock()
	tb.splits.Add(1)
	return nil
}

// entry is one key/value pair copied out of a bucket page: what a split
// redistributes and what Scan hands to its callback after the latches drop.
type entry struct {
	key, val []byte
	ghost    bool
}

// collectEntries appends copies of n's entries with start <= key < end (nil
// end = unbounded) to out, ghosts included only on request.
func collectEntries(n *bucket, start, end []byte, ghosts bool, out *[]entry) error {
	i, _, err := n.Find(start)
	for ; err == nil && i < n.Count(); i++ {
		var k, v []byte
		var ghost bool
		k, v, ghost, err = n.Record(i)
		if err != nil || (end != nil && bytes.Compare(k, end) >= 0) {
			break
		}
		if !ghost || ghosts {
			*out = append(*out, entry{key: append([]byte(nil), k...), val: append([]byte(nil), v...), ghost: ghost})
		}
	}
	return err
}

// packEntries distributes entries (sorted by key) greedily into page-sized
// groups. Every entry is bounded by maxEntrySize, so each group holds at
// least a few entries and packing always terminates.
func packEntries(ents []entry, capacity int) [][]entry {
	sort.Slice(ents, func(i, j int) bool { return bytes.Compare(ents[i].key, ents[j].key) < 0 })
	var pages [][]entry
	var cur []entry
	size := emptyBucketSize
	for _, e := range ents {
		es := page.RecordSize(len(e.key), len(e.val))
		if size+es > capacity && len(cur) > 0 {
			pages = append(pages, cur)
			cur, size = nil, emptyBucketSize
		}
		cur = append(cur, e)
		size += es
	}
	if len(cur) > 0 {
		pages = append(pages, cur)
	}
	return pages
}

// bucketPayload builds a bucket page payload holding ents (sorted by key)
// on a scratch page of the given capacity.
func bucketPayload(capacity int, ext []byte, ents []entry) ([]byte, error) {
	pg := page.New(page.InvalidID, page.TypeHash, capacity+page.HeaderSize)
	if err := pg.SetPayload(page.NewRecords(page.KindBucket, ext)); err != nil {
		return nil, err
	}
	for i, e := range ents {
		if err := pg.InsertRecord(i, e.key, e.val, e.ghost); err != nil {
			return nil, err
		}
	}
	return pg.Payload(), nil
}

// allocChain allocates a complete bucket chain for pageEnts (tail first so
// links are known at format time) and returns the primary page ID. An
// empty pageEnts still yields one empty primary page.
func (tb *Table) allocChain(st *txn.Txn, capacity int, pageEnts [][]entry, bucketNum, stamp uint32, dir page.ID) (page.ID, error) {
	if len(pageEnts) == 0 {
		pageEnts = [][]entry{nil}
	}
	return tb.allocChainAt(st, capacity, pageEnts, bucketNum, stamp, dir, 0)
}

// allocChainAt is allocChain starting at chain position basePos.
func (tb *Table) allocChainAt(st *txn.Txn, capacity int, pageEnts [][]entry, bucketNum, stamp uint32,
	dir page.ID, basePos uint32) (page.ID, error) {
	next := page.InvalidID
	for i := len(pageEnts) - 1; i >= 0; i-- {
		payload, err := bucketPayload(capacity, bucketExt(bucketNum, stamp, dir, next, basePos+uint32(i)), pageEnts[i])
		if err != nil {
			return page.InvalidID, err
		}
		h, err := tb.pager.AllocateNode(st, page.TypeHash, payload)
		if err != nil {
			return page.InvalidID, err
		}
		next = h.ID()
		h.Release()
	}
	return next, nil
}
