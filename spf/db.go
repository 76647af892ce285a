package spf

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/backup"
	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/hashindex"
	"repro/internal/maintenance"
	"repro/internal/page"
	"repro/internal/pagemap"
	"repro/internal/pageop"
	"repro/internal/restore"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Re-exported types so applications need only import this package.
type (
	// Txn is a transaction handle.
	Txn = txn.Txn
	// PageID identifies a logical page.
	PageID = page.ID
	// LSN is a log sequence number.
	LSN = page.LSN
	// FaultKind selects an injected fault mode.
	FaultKind = storage.FaultKind
	// Entry is one key/value pair visited by Index.Scan.
	Entry = btree.Entry
	// FailureClass is the paper's four-class failure taxonomy.
	FailureClass = core.FailureClass
)

// Re-exported fault kinds for injection experiments.
const (
	FaultReadError        = storage.FaultReadError
	FaultSilentCorruption = storage.FaultSilentCorruption
	FaultZeroPage         = storage.FaultZeroPage
	FaultTornWrite        = storage.FaultTornWrite
	FaultLostWrite        = storage.FaultLostWrite
)

// Errors surfaced by the engine. ErrPageFailed wraps unrecoverable
// single-page failures (escalation to media recovery required); the index
// outcomes are the ones both engines report (internal/pageop).
var (
	ErrPageFailed  = buffer.ErrPageFailed
	ErrKeyNotFound = pageop.ErrKeyNotFound
	ErrKeyExists   = pageop.ErrKeyExists
	ErrDetected    = pageop.ErrDetected
	// ErrCommitLost reports a commit that cannot be proven durable
	// because a simulated crash intervened: its log records were wiped
	// with the volatile tail (restart rolls the transaction back) or, in
	// rare multi-crash races, durability simply cannot be established.
	// Callers must consult post-restart state before retrying.
	ErrCommitLost   = wal.ErrCommitLost
	ErrCrashed      = errors.New("spf: database is crashed; call Restart")
	ErrClosed       = errors.New("spf: database is closed")
	ErrUnknownIndex = errors.New("spf: unknown index")
	// ErrNoSlot reports that a page has no image on the device to inject a
	// fault into: it was never written back, or a read just rebuilt it off
	// a failed slot and its write-back is still due.
	ErrNoSlot = errors.New("spf: page has no physical slot yet")
	// ErrNotFound is the canonical "key does not exist" sentinel — the
	// benign miss every caller must distinguish from detection errors
	// (ErrDetected) and failed repairs (ErrPageFailed). It aliases
	// ErrKeyNotFound; both names satisfy errors.Is against either.
	ErrNotFound = pageop.ErrKeyNotFound
)

// DB is a single-device transactional storage engine with single-page
// failure detection and recovery.
type DB struct {
	opts Options

	dev   *storage.Device
	store *backup.Store
	log   *wal.Manager
	pmap  *pagemap.Map
	pool  *buffer.Pool
	txns  *txn.Manager
	pri   *core.PRI
	rec   *core.Recoverer
	res   *backup.Resolver
	sched *restore.Scheduler   // the repair queue; every DB has one
	maint *maintenance.Service // nil unless Options.Maintenance.Enabled

	// Log lifecycle: archiver is the per-DB owner of log truncation, arch
	// the durable log archive it fills (nil unless Options.Lifecycle.Enabled;
	// shared across Restart/RecoverMedia).
	arch     *archive.Store
	archiver *archive.Archiver

	// backupMu admits one BackupNow at a time; ckptMu keeps a checkpoint's
	// index snapshot and a backup's re-pointing of the index apart.
	backupMu sync.Mutex
	ckptMu   sync.Mutex

	// parked holds superseded backup copies until the record that replaced
	// each is durable (supersedeBackup).
	parkMu sync.Mutex
	parked []parkedBackup

	mu      sync.Mutex
	metaID  page.ID
	engines map[string]Engine
	crashed bool
	closed  bool

	// backlog is how many pages the recovery that produced this DB queued
	// for background repair; set before the DB is handed out.
	backlog int

	// suspects are pages a descent's cross-page check implicated although
	// their images are sound in isolation; validatePage refuses them so the
	// repair that healDetected requests rebuilds them from backup and log.
	suspects sync.Map // page.ID -> struct{}
}

// RestartRedoStats summarises how recoveries on this DB found their replay
// base, and what is left of the backlog of the recovery that produced it
// (Metrics.RestartRedo). Despite the name, which benchmark/ and dashboards
// read, a lost write counts like a page left stale by a crash.
type RestartRedoStats struct {
	// Marked is how many pages the recovery that produced this DB — an
	// instant Restart or RecoverMedia — queued for background repair.
	Marked int64
	// FastRedos counts recoveries that replayed only the missing chain tail
	// onto the image the failed read had loaded from the page's own slot
	// (core.Stats.OwnImage): stale after a crash, or a lost write. No backup
	// was touched and the slot stayed in service.
	FastRedos int64
	// Fallbacks counts sound images recovery could not build on — older
	// than the page's backup, or off its chain — so that the page was
	// recovered from its registered backup instead
	// (core.Stats.OwnImageRejected).
	Fallbacks int64
	// Pending is how many background repairs are still queued or running.
	Pending int64
}

// Open creates a fresh database.
func Open(opts Options) (*DB, error) {
	opts = opts.withDefaults()
	db := newDB(opts,
		storage.NewDevice(storage.Config{
			PageSize: opts.PageSize, Slots: opts.DataSlots,
			Profile: opts.DataProfile, Seed: opts.Seed,
		}),
		backup.NewStore(storage.NewDevice(storage.Config{
			PageSize: opts.PageSize, Slots: opts.BackupSlots,
			Profile: opts.BackupProfile, Seed: opts.Seed + 1,
		})),
		wal.NewManager(opts.LogProfile),
		pagemap.New(opts.DataSlots), core.NewPRI(), nil)

	// Bootstrap: the meta page holding the index registry.
	st := db.txns.BeginSystem()
	h, err := db.AllocateNode(st, page.TypeMeta, nil)
	if err != nil {
		db.stopRestore()
		return nil, fmt.Errorf("spf: bootstrapping meta page: %w", err)
	}
	db.metaID = h.ID()
	h.Release()
	if err := st.Commit(); err != nil {
		db.stopRestore()
		return nil, err
	}
	if _, err := db.Checkpoint(); err != nil {
		db.stopRestore()
		return nil, err
	}
	db.startMaintenance()
	db.startLifecycle()
	return db, nil
}

// newDB wires a DB over its devices, log, page map and recovery index, up
// to a running repair queue and a built (not started) log lifecycle: the
// one constructor behind Open, Restart and RecoverMedia. prev is the failed
// incarnation a recovery takes over from — it hands on the log archive, a
// durable device like the other three — and nil for Open. Maintenance and
// the lifecycle loop start later, once bootstrap or recovery has settled.
func newDB(opts Options, dev *storage.Device, store *backup.Store, log *wal.Manager,
	pmap *pagemap.Map, pri *core.PRI, prev *DB) *DB {
	db := &DB{
		opts: opts, dev: dev, store: store, log: log, pmap: pmap, pri: pri,
		engines: make(map[string]Engine),
	}
	db.txns = txn.NewManager(log)
	db.txns.SetUndoer(undoer{db})
	db.res = &backup.Resolver{Store: store, Log: log, PageSize: opts.PageSize}
	db.rec = core.NewRecoverer(log, pri, db.res, applier{})
	db.pool = buffer.NewPool(buffer.Config{
		Capacity: opts.PoolFrames, Device: dev, Map: pmap, Log: log,
		Hooks: db.hooks(),
	})
	db.startRestore()
	db.initLifecycle(prev)
	return db
}

// startRestore launches the background repair queue. Called once per DB,
// right after the buffer pool exists, from the single goroutine
// constructing the DB — so it is running before any backlog is enqueued.
func (db *DB) startRestore() {
	db.sched = restore.New(restore.Config{
		Workers: db.opts.Restore.Workers,
	}, restore.Deps{
		Repair: db.performRepair,
		Busy:   func(err error) bool { return errors.Is(err, buffer.ErrPinned) },
	})
	db.sched.Start()
}

// stopRestore quiesces the scheduler: queued repairs fail with
// restore.ErrStopped (waking their waiters — the maintenance campaign
// among them), the in-flight repair completes, and every worker is joined.
// Crash, Close, and FailDevice call it BEFORE stopMaintenance (the scrub
// campaign parks on repair futures; failing them first lets the campaign
// goroutine reach its own quit check) and before any log truncation — a
// worker mid-repair reads the log and appends recovery records, so the
// same WAL-safety ordering the maintenance service observes applies here.
func (db *DB) stopRestore() { db.sched.Stop() }

// performRepair makes a page healthy from outside the read path — the
// scheduler workers' repair routine, and what healDetected runs itself.
//
//   - A scrub finding has a (possibly clean) buffered copy of a damaged
//     device slot: evict it so the read below sees the device. A page
//     pinned by concurrent readers cannot be evicted this instant — that
//     is congestion, not failure, so the error reports busy and the caller
//     retries instead of dropping the page.
//   - A backlog page (restart redo, media restore) has no resident copy;
//     eviction is a no-op.
//
// The rest is the read path itself (Fig. 8): the fetch loads the page,
// or joins whichever fetch is loading it already, and the one loader
// validates, recovers and retires a slot that failed; the recovered page
// is installed dirty for write-back to persist.
func (db *DB) performRepair(id page.ID) error {
	if db.isCrashed() {
		return ErrCrashed
	}
	if err := db.pool.Evict(id); err != nil && !errors.Is(err, buffer.ErrNotResident) {
		return err
	}
	h, err := db.pool.Fetch(id)
	if err != nil {
		return err
	}
	h.Release()
	return nil
}

// repairNow is performRepair on the caller's goroutine, waiting out
// readers that have the page pinned. Only healDetected uses it: its caller
// is an operation waiting on the page, and a reader never queues.
func (db *DB) repairNow(id page.ID) error {
	for attempt := 0; ; attempt++ {
		if err := db.performRepair(id); err == nil {
			return nil
		} else if !errors.Is(err, buffer.ErrPinned) || attempt >= 500 {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// startMaintenance launches the background maintenance service when the
// options ask for it. Called once per DB, after bootstrap/recovery traffic
// has settled, from the single goroutine constructing the DB.
func (db *DB) startMaintenance() {
	mo := db.opts.Maintenance
	if !mo.Enabled {
		return
	}
	db.maint = maintenance.New(maintenance.Config{
		FlushWorkers:        mo.FlushWorkers,
		FlushBatchPages:     mo.FlushBatchPages,
		FlushInterval:       mo.FlushInterval,
		DirtyHighWatermark:  mo.DirtyHighWatermark,
		ScrubPagesPerSecond: mo.ScrubPagesPerSecond,
		ScrubBatchPages:     mo.ScrubBatchPages,
	}, maintenance.Deps{
		Pool:        db.pool,
		Dev:         db.dev,
		MappedSlots: db.pmap.MappedSlots,
		Repair:      db.repairLatent,
	})
	db.maint.Start()
}

// stopMaintenance quiesces the service (idempotent; in-flight batches
// complete). Crash and Close call it before touching the log or the pool,
// so background write-back is quiesced exactly like foreground appenders.
func (db *DB) stopMaintenance() {
	if db.maint != nil {
		db.maint.Stop()
	}
}

// repairLatent repairs a latent failure the scrub campaign found: nobody
// is waiting to read the page, so it joins the background queue (behind
// cheaper repairs, sharing the ticket of a backlog entry for the same
// page) and the call waits for the outcome, which keeps the campaign's
// repaired/escalated tallies accurate. A page momentarily pinned by
// readers is requeued with backoff inside the scheduler instead of being
// dropped.
func (db *DB) repairLatent(id page.ID) error {
	if db.isCrashed() {
		return ErrCrashed
	}
	return db.sched.Enqueue(id, 0).Wait() // a scrub finding: replay span unknown
}

// hooks wires the buffer pool to detection, recovery, and PRI maintenance.
func (db *DB) hooks() buffer.Hooks {
	h := buffer.Hooks{
		CompleteWrite: db.completeWrite,
		OnMarkDirty:   db.onMarkDirty,
		// The scheduler is created after the pool, so resolve it per call.
		OnReadRetry: func(page.ID) { db.sched.NoteReadRetry() },
	}
	if !db.opts.DisableSinglePageRecovery {
		h.Validate = db.validatePage
		h.Recover = db.recoverPage
	}
	return h
}

// validatePage is the engine's half of the read path's plausibility tests
// (Fig. 8), run on every image the pool loads after the page layer's own
// (checksum, header, structured-payload Check); a failure sends the page
// through single-page recovery like any other. Three tests:
//
//   - The owning engine's header checks — layout kind, extension shape,
//     flag/pointer agreement, directory round state — so damage they can
//     see is repaired at the door instead of surfacing from a descent.
//   - Suspicion: a descent's cross-page check (fence vs separator, stamp vs
//     directory slot) failed on this page although its image is sound in
//     isolation, so the image is refused and rebuilt (see healDetected).
//   - The PageLSN cross-check of §5.2.2: a page read from the database must
//     carry at least the LSN the page recovery index recorded at its last
//     completed write. An OLDER page is a lost write — the only failure
//     mode checksums cannot catch. A NEWER page is not a page failure at
//     all: it means the PRI update was lost in a crash (the page write
//     completed, its log record did not), exactly the condition restart
//     redo repairs per Fig. 12.
func (db *DB) validatePage(pg *page.Page) error {
	if err := db.plausibleImage(pg); err != nil || db.opts.DisablePageLSNCheck {
		return err
	}
	entry, err := db.pri.Get(pg.ID())
	if err != nil {
		return nil // no expectation recorded
	}
	if entry.LastLSN != page.ZeroLSN && pg.LSN() < entry.LastLSN {
		return fmt.Errorf("PageLSN %d below page recovery index expectation %d (lost write)",
			pg.LSN(), entry.LastLSN)
	}
	return nil
}

// plausibleImage is validatePage's first two tests — everything but the
// PageLSN expectation — which recoverPage also applies to an image before
// recovery may replay onto it (that image is expected to be stale).
func (db *DB) plausibleImage(pg *page.Page) error {
	var err error
	switch pg.Type() {
	case page.TypeBTree:
		_, err = btree.PageRole(pg.Payload())
	case page.TypeHash:
		_, err = hashindex.PageRole(pg.Payload())
	}
	if err != nil {
		return err
	}
	if _, suspect := db.suspects.Load(pg.ID()); suspect {
		return fmt.Errorf("page %d failed a descent's cross-page check", pg.ID())
	}
	return nil
}

// healDetected responds to a descent reporting ErrDetected: a cross-page
// check failed although both pages passed every in-page test, so only the
// pair is implicated — the page that failed to carry what was predicted,
// and the predecessor that predicted it. Both are marked suspect and sent
// through single-page recovery here, on the goroutine of the operation
// that is waiting, which rebuilds each from its backup and log chain;
// rebuilding the healthy one of the two is merely redundant. Reports
// whether the caller should run its operation again.
func (db *DB) healDetected(err error) bool {
	var ce *pageop.CorruptionError
	if db.opts.DisableSinglePageRecovery || !errors.As(err, &ce) {
		return false
	}
	for _, id := range [2]page.ID{ce.Page, ce.Via} {
		if id == page.InvalidID {
			continue
		}
		db.suspects.Store(id, struct{}{})
		rerr := db.repairNow(id)
		db.suspects.Delete(id)
		if rerr != nil {
			return false
		}
	}
	return ce.Page != page.InvalidID
}

// recoverPage adapts the single-page recoverer to the buffer pool hook.
// have is the sound image the failed read loaded from the page's slot, if
// any; one the engine's own checks refuse is dropped here, and the
// recoverer decides whether the rest can be the replay's base
// (core.Recoverer.RecoverPage) — it is for a page left stale by a crash and
// for a lost write. A page with no image and no index entry was allocated
// and never logged: nothing refers to it, and nothing failed.
func (db *DB) recoverPage(id page.ID, have *page.Page) (*page.Page, bool, error) {
	if have == nil {
		if _, err := db.pri.Get(id); err != nil {
			return nil, false, fmt.Errorf("%w: %v", buffer.ErrNeverWritten, err)
		}
	} else if db.plausibleImage(have) != nil {
		have = nil
	}
	pg, rep, err := db.rec.RecoverPage(id, have)
	if err != nil {
		return nil, false, err
	}
	// A ticket still queued for the page is void (the scheduler also tells
	// a reader's recovery from a worker's).
	db.sched.NoteForegroundRepair(id)
	return pg, rep.OwnImage, nil
}

// onMarkDirty prods the maintenance flushers when the pool's dirty count
// crosses their watermark.
func (db *DB) onMarkDirty(page.ID) {
	if m := db.maint; m != nil {
		m.NotifyDirty()
	}
}

// completeWrite is the Fig. 11 sequence: after a dirty page reached the
// database, update the page recovery index and describe the update in log
// records, which the buffer pool appends — immediately on per-page flushes
// (before the frame may be evicted), or as one grouped reserve-fill append
// per flush batch. The records are system-transaction-style records that
// need no log force (§5.2.4) and double as logged completed writes
// (§5.1.2); the pool invokes this hook under per-frame flush
// serialization, so each page's index updates happen in write order.
//
// It is also where §6's backup policy runs: the index entry adds the
// write's updates to the page's count, and once that reaches
// Options.BackupEveryNUpdates the image being written — in hand, and
// consistent — is copied to the backup store as the page's backup. A copy
// the backup device refuses is skipped; the count stays due, so the next
// write-back tries again. The copy needs no backupMu: it is taken under the
// frame's flush mutex, so a BackupNow's FlushAll write of this frame waits
// until it is installed, and a write-back that starts after that one holds
// every update the page had below the set's asOf — its chain never reaches
// below the log the backup recycles.
func (db *DB) completeWrite(info buffer.WriteInfo) []*wal.Record {
	if db.opts.DisableSinglePageRecovery {
		return nil
	}
	e, err := db.pri.RecordWrite(info.Page, info.PageLSN, info.Updates)
	if err != nil {
		db.pri.Set(info.Page, core.Entry{LastLSN: info.PageLSN})
	} else if n := db.opts.BackupEveryNUpdates; n > 0 && e.Updates >= n {
		if ref, err := db.store.PutPage(info.Image); err == nil {
			db.installBackup(info.Page, ref)
		}
	}
	return []*wal.Record{{
		Type: wal.TypePRIUpdate, PageID: info.Page,
		Payload: core.EncodeWriteComplete(core.WriteCompletePayload{
			PageLSN: info.PageLSN, Dest: info.Dest,
		}),
	}}
}

// installBackup registers ref as page id's backup and logs it; the copy it
// supersedes is released only behind that record — a restart that lost the
// record resolves the page against the old copy again.
func (db *DB) installBackup(id page.ID, ref core.BackupRef) {
	old, err := db.pri.SetBackup(id, ref)
	if err != nil {
		db.pri.Set(id, core.Entry{Backup: ref, LastLSN: ref.AsOf})
	}
	lsn := db.log.Append(&wal.Record{
		Type: wal.TypePRIUpdate, PageID: id,
		Payload: core.EncodeSetBackup(ref),
	})
	db.supersedeBackup(id, old, lsn)
}

// parkedBackup is a superseded backup copy whose release waits for the log
// record that replaced its reference: until that record is durable, a
// restart rebuilds an index that still names the copy.
type parkedBackup struct {
	page  page.ID
	ref   core.BackupRef
	after page.LSN // the replacing PRIUpdate record
}

// supersedeBackup parks the backup copy that the index update logged at
// after replaced ("when a new backup page is taken ... the old backup page
// may be freed and the page recovery index gives fast access to its
// identifier", §5.2.2), then releases whatever has become releasable.
func (db *DB) supersedeBackup(id page.ID, old core.BackupRef, after page.LSN) {
	if old.Kind != core.BackupPage {
		return // a set, a log record: nothing of its own to free
	}
	db.parkMu.Lock()
	db.parked = append(db.parked, parkedBackup{page: id, ref: old, after: after})
	db.parkMu.Unlock()
	db.releaseDurable()
}

// releaseDurable frees the parked backup copies whose replacing record the
// log has made durable. Appends reach the queue nearly in LSN order, so
// only its head is examined; a straggler waits for the next call.
func (db *DB) releaseDurable() {
	flushed := db.log.FlushedLSN()
	db.parkMu.Lock()
	n := 0
	for n < len(db.parked) && db.parked[n].after < flushed {
		n++
	}
	ripe := db.parked[:n:n]
	db.parked = db.parked[n:]
	db.parkMu.Unlock()
	for _, b := range ripe {
		db.store.FreeSlot(b.ref.Loc)
	}
}

// inheritParked settles the backup copies prev still had parked when it
// failed against the index rebuilt from the surviving log: a copy the
// index names again (its replacement was cut from the log) is live; every
// other is released.
func (db *DB) inheritParked(prev *DB) {
	prev.parkMu.Lock()
	parked := prev.parked
	prev.parked = nil
	prev.parkMu.Unlock()
	for _, b := range parked {
		if cur, err := db.pri.Get(b.page); err == nil &&
			cur.Backup.Kind == b.ref.Kind && cur.Backup.Loc == b.ref.Loc {
			continue
		}
		db.store.FreeSlot(b.ref.Loc)
	}
}

// undoer adapts the engine to the transaction manager's rollback; like
// redo, undo routes on the record payload's opcode namespace.
type undoer struct{ db *DB }

func (u undoer) Undo(t *txn.Txn, rec *wal.Record) error {
	if hashindex.IsHashOp(rec.Payload) {
		return hashindex.Compensate(t, u.db, rec)
	}
	return btree.Compensate(t, u.db, rec)
}

// AllocateNode implements btree.Pager: it allocates a logical page,
// installs it dirty in the pool, logs its format record under t, and
// registers that record as the page's backup in the page recovery index.
func (db *DB) AllocateNode(t *txn.Txn, typ page.Type, initialPayload []byte) (*buffer.Handle, error) {
	if err := db.opErr(); err != nil {
		return nil, err
	}
	id := db.pmap.AllocateLogical()
	h, err := db.pool.Create(id, typ)
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
	if !db.opts.DisableSinglePageRecovery {
		db.pri.Set(id, core.Entry{
			Backup:  core.BackupRef{Kind: core.BackupFormat, Loc: uint64(lsn), AsOf: lsn},
			LastLSN: lsn,
		})
	}
	return h, nil
}

// Fetch implements btree.Pager via the validating buffer pool.
func (db *DB) Fetch(id page.ID) (*buffer.Handle, error) {
	if err := db.opErr(); err != nil {
		return nil, err
	}
	return db.pool.Fetch(id)
}

// BeginSystem implements btree.Pager.
func (db *DB) BeginSystem() *txn.Txn { return db.txns.BeginSystem() }

// Begin starts a user transaction.
func (db *DB) Begin() *Txn { return db.txns.Begin() }

// Commit commits a transaction: Txn.Commit, under the database's name.
// The page backups of Options.BackupEveryNUpdates are taken at write-back,
// not here.
func (db *DB) Commit(t *Txn) error { return t.Commit() }

func (db *DB) isCrashed() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.crashed
}

// Err reports the DB's lifecycle state without touching any data: nil
// while the database is serving, ErrCrashed after Crash or FailDevice
// (call Restart/RecoverMedia), ErrClosed after Close. Servers use it to
// health-check without issuing an operation.
func (db *DB) Err() error { return db.opErr() }

// opErr gates public operations on the DB's lifecycle state: ErrCrashed
// after Crash/FailDevice (call Restart/RecoverMedia), ErrClosed after a
// clean Close. Crash dominates — a crashed DB that was then Closed still
// reports ErrCrashed, since Restart remains the way forward.
func (db *DB) opErr() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	switch {
	case db.crashed:
		return ErrCrashed
	case db.closed:
		return ErrClosed
	default:
		return nil
	}
}

// CreateIndex creates a named index of the kind Options.IndexKind selects
// (the Foster B-tree by default).
func (db *DB) CreateIndex(name string) (*Index, error) {
	return db.CreateIndexKind(name, db.opts.IndexKind)
}

// CreateIndexKind creates a named index backed by the given engine. All
// engines share the pool, WAL, maintenance, and restore paths; the kind
// only picks how keys are organized on pages.
func (db *DB) CreateIndexKind(name string, kind IndexKind) (*Index, error) {
	db.mu.Lock()
	if db.crashed {
		db.mu.Unlock()
		return nil, ErrCrashed
	}
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := db.engines[name]; ok {
		db.mu.Unlock()
		return nil, fmt.Errorf("spf: index %q already exists", name)
	}
	// Reserve the name while the engine is built; the entry is replaced or
	// removed below. The mutex cannot be held across engine construction:
	// AllocateNode and the dirty-page hook take it too.
	db.engines[name] = nil
	db.mu.Unlock()
	fail := func(err error) (*Index, error) {
		db.mu.Lock()
		delete(db.engines, name)
		db.mu.Unlock()
		return nil, err
	}

	st := db.txns.BeginSystem()
	eng, err := db.createEngine(st, name, kind)
	if err != nil {
		_ = st.Abort()
		return fail(err)
	}
	// Register in the meta page. The registry maps name → root page; the
	// root page's type tags the engine, so reopen needs no catalog change.
	h, err := db.pool.Fetch(db.metaID)
	if err != nil {
		return fail(err)
	}
	h.Lock()
	err = db.logMetaPut(st, h, name, eng.Root(), page.InvalidID)
	h.Unlock()
	h.Release()
	if err != nil {
		return fail(err)
	}
	if err := st.Commit(); err != nil {
		return fail(err)
	}
	db.mu.Lock()
	db.engines[name] = eng
	db.mu.Unlock()
	return &Index{db: db, eng: eng}, nil
}

func (db *DB) logMetaPut(t *txn.Txn, h *buffer.Handle, name string, root, oldRoot page.ID) error {
	op := btree.EncodeMetaPut(name, root, oldRoot)
	lsn, err := t.Log(&wal.Record{
		Type: wal.TypeUpdate, PageID: h.ID(), PagePrevLSN: h.Page().LSN(), Payload: op,
	})
	if err != nil {
		return err
	}
	if err := (applier{}).ApplyRedo(&wal.Record{Payload: op}, h.Page()); err != nil {
		return err
	}
	h.Page().SetLSN(lsn)
	h.MarkDirty(lsn)
	return nil
}

// Index returns a previously created index.
func (db *DB) Index(name string) (*Index, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.crashed {
		return nil, ErrCrashed
	}
	if db.closed {
		return nil, ErrClosed
	}
	if eng, ok := db.engines[name]; ok && eng != nil {
		return &Index{db: db, eng: eng}, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownIndex, name)
}

// Indexes lists the registered index names from the meta page.
func (db *DB) Indexes() ([]string, error) {
	h, err := db.Fetch(db.metaID)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	h.RLock()
	defer h.RUnlock()
	reg, err := btree.DecodeRegistry(h.Page().Payload())
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Index is a named key-value index backed by one of the storage engines
// (Foster B-tree or linear-hash table) over the shared SPF machinery.
type Index struct {
	db  *DB
	eng Engine
}

// Kind reports which engine backs this index.
func (ix *Index) Kind() IndexKind { return ix.eng.Kind() }

// Insert adds key=val under t.
//
// Like every operation below, a descent that reports ErrDetected has the
// implicated pages repaired online and runs once more (healDetected); the
// failed descent logged nothing, so the retry is exact.
func (ix *Index) Insert(t *Txn, key, val []byte) error {
	err := ix.eng.Insert(t, key, val)
	if err != nil && ix.db.healDetected(err) {
		err = ix.eng.Insert(t, key, val)
	}
	return err
}

// Update replaces the value of key under t.
func (ix *Index) Update(t *Txn, key, val []byte) error {
	err := ix.eng.Update(t, key, val)
	if err != nil && ix.db.healDetected(err) {
		err = ix.eng.Update(t, key, val)
	}
	return err
}

// Delete removes key under t (logically, via a ghost record).
func (ix *Index) Delete(t *Txn, key []byte) error {
	err := ix.eng.Delete(t, key)
	if err != nil && ix.db.healDetected(err) {
		err = ix.eng.Delete(t, key)
	}
	return err
}

// Get returns the value for key (ErrNotFound when absent).
func (ix *Index) Get(key []byte) ([]byte, error) { return ix.GetTo(nil, key) }

// GetTo is Get appending the value to dst and returning the extended
// slice, so a caller reusing its buffer across lookups (the server's hot
// read path) pays zero allocations on a resident hit. dst may be nil.
func (ix *Index) GetTo(dst, key []byte) ([]byte, error) {
	out, err := ix.eng.GetTo(dst, key)
	if err != nil && ix.db.healDetected(err) {
		out, err = ix.eng.GetTo(dst, key)
	}
	return out, err
}

// Scan visits live entries in [start, end). B-tree indexes emit key
// order; hash indexes emit bucket order (sorted within each bucket).
//
// A scan that reports ErrDetected has the implicated pages repaired too,
// but is not resumed — fn has already seen a prefix of the range; the
// caller's next scan finds the index healed.
func (ix *Index) Scan(start, end []byte, fn func(Entry) bool) error {
	err := ix.eng.Scan(start, end, fn)
	if err != nil {
		ix.db.healDetected(err)
	}
	return err
}

// Verify exhaustively checks the index's structural invariants and returns
// human-readable violations (empty = clean). It is an offline audit: it
// latches one page at a time and assumes a quiesced index — a structural
// change landing between two page visits can surface as a transient
// violation on a healthy index.
func (ix *Index) Verify() ([]string, error) { return ix.eng.Verify() }

// TreeStats returns structural statistics of a B-tree index; it fails for
// other engine kinds (use HashStats for hash indexes).
func (ix *Index) TreeStats() (btree.Stats, error) {
	if e, ok := ix.eng.(btreeEngine); ok {
		return e.tree.WalkStats()
	}
	return btree.Stats{}, fmt.Errorf("spf: TreeStats on %v index %q", ix.eng.Kind(), ix.eng.Name())
}

// HashStats returns structural statistics of a hash index; it fails for
// other engine kinds.
func (ix *Index) HashStats() (hashindex.Stats, error) {
	if e, ok := ix.eng.(hashEngine); ok {
		return e.table.WalkStats()
	}
	return hashindex.Stats{}, fmt.Errorf("spf: HashStats on %v index %q", ix.eng.Kind(), ix.eng.Name())
}

// Root exposes the root page ID (stable): the B-tree root or the hash
// directory page.
func (ix *Index) Root() PageID { return ix.eng.Root() }
