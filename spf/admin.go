package spf

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Checkpoint takes a fuzzy checkpoint (§5.2.6) and returns the LSN of the
// checkpoint-end record. The checkpoint's redo horizon is pushed to the
// archiver — the trigger that lets live log segments beneath it recycle
// once the archive, or a full backup, covers them too.
func (db *DB) Checkpoint() (LSN, error) {
	// A crash from here on may cut the checkpoint's records out of the log
	// or lay them into a restarted DB's; the epoch tells (recovery.Checkpoint).
	epoch := db.log.Epoch()
	if err := db.opErr(); err != nil {
		return 0, err
	}
	db.ckptMu.Lock()
	res, err := recovery.Checkpoint(recovery.CheckpointDeps{
		Log: db.log, Pool: db.pool, Txns: db.txns, PRI: db.pri, Map: db.pmap,
	}, epoch)
	db.ckptMu.Unlock()
	if errors.Is(err, wal.ErrEpochChanged) {
		return 0, ErrCrashed
	}
	if err != nil {
		return 0, err
	}
	db.archiver.SetCheckpointHorizon(res.RedoHorizon)
	db.archiver.Kick()
	// The checkpoint forced the log: every backup copy superseded before it
	// can go.
	db.releaseDurable()
	return res.End, nil
}

// BackupReport quantifies one BackupNow run.
type BackupReport struct {
	Pages   int // logical pages captured in the set
	Written int // images newly copied to the backup device
	Skipped int // unchanged images shared with the previous set
}

// BackupNow takes a full database backup into the backup store and
// installs it as the backup source for every page (range-compressed PRI
// entries, §5.2.2), returning the set's ID and what it copied.
//
// The set is taken incrementally: a page whose
// recovery-index LastLSN shows no durable write since the previous set
// captured it (and which is not dirty in the pool) is shared with that set
// via slot reference counting instead of being rewritten. The resulting
// set is still a complete BackupFull source — media recovery and
// single-page recovery resolve against it exactly as against a from-
// scratch set; only the backup device traffic shrinks.
//
// The skip test is conservative on both sides of the PRI's §5.2.2
// lifecycle: FlushAll first makes every pending change durable, and a
// durable write always raises LastLSN to the page's content LSN
// (CompleteWrite), so a changed page necessarily has LastLSN above the
// LSN the previous set captured. An unchanged page has LastLSN at or
// below it — including the zero a previous full backup's SetRange
// installed — and a page mutated after the flush is caught by IsDirty.
//
// Retention: once the new set's index ranges are logged and the log is
// flushed, every older set is dropped. Nothing can resolve against one any
// more — the index names the new set for every page and media recovery
// takes the newest set — so the backup device holds the live set plus,
// while a backup runs, the one being written. Backups run one at a time.
//
// Truncation: from then on no chain replay reads below the log position
// the set is as of, which becomes the archiver's backup horizon (its floor
// still holds active-transaction undo and log-backed backup references).
// The backup ends with a checkpoint — its flush finds the pool clean — and
// one synchronous archiver step, so without the archive the log below both
// horizons is already recycled when BackupNow returns.
func (db *DB) BackupNow() (uint64, BackupReport, error) {
	var rep BackupReport
	// A crash from here on may cut this backup's index records out of the
	// log; the epoch tells (pointIndexAt).
	epoch := db.log.Epoch()
	if err := db.opErr(); err != nil {
		return 0, rep, err
	}
	db.backupMu.Lock()
	defer db.backupMu.Unlock()
	// The set is as of the log end before the flush: every image it takes
	// holds its page's history below asOf, and so does every page backup
	// installed after the index names the set — a write-back's policy copy
	// (see completeWrite) or a BackupPage, which waits for backupMu.
	asOf := db.log.EndLSN()
	// Flush everything so the backup captures a write-consistent state.
	if err := db.pool.FlushAll(); err != nil {
		return 0, rep, err
	}
	db.log.FlushAll()
	// The PRI skip test needs single-page recovery's bookkeeping; without
	// it every page is rewritten (prev == 0 disables sharing).
	var prev uint64
	if !db.opts.DisableSinglePageRecovery {
		prev = db.store.LatestSet()
	}
	w := db.store.BeginFullSet(asOf)
	defer w.Abort() // frees a failed backup's images; no-op once committed
	ids := db.pmap.Pages()
	rep.Pages = len(ids)
	for _, id := range ids {
		if prev != 0 {
			// Clean first, index second: write-back tells the index before
			// the frame turns clean, so the LSN read after a clean frame
			// covers every write the page has had.
			if prevLSN, ok := db.store.SetPageInfo(prev, id); ok && !db.pool.IsDirty(id) {
				if e, err := db.pri.Get(id); err == nil && e.LastLSN <= prevLSN {
					if err := w.AddShared(id, prev); err != nil {
						return 0, rep, err
					}
					rep.Skipped++
					continue
				}
			}
		}
		h, err := db.pool.Fetch(id)
		if err != nil {
			return 0, rep, fmt.Errorf("spf: backing up page %d: %w", id, err)
		}
		h.RLock()
		pg := h.Page().Clone()
		h.RUnlock()
		h.Release()
		if err := w.Add(pg); err != nil {
			return 0, rep, err
		}
		rep.Written++
	}
	w.Commit()
	if !db.opts.DisableSinglePageRecovery {
		if err := db.pointIndexAt(w.SetID(), asOf, ids, epoch); err != nil {
			return w.SetID(), rep, err
		}
	}
	for _, old := range db.store.Sets() {
		if old < w.SetID() {
			if err := db.store.DropSet(old); err != nil {
				return w.SetID(), rep, err
			}
		}
	}
	db.archiver.SetBackupHorizon(asOf)
	if _, err := db.Checkpoint(); err != nil {
		return w.SetID(), rep, err
	}
	// An archive fault pauses the lifecycle, which ArchivePaused reports;
	// the backup stands either way.
	_ = db.archiver.Step(false)
	return w.SetID(), rep, nil
}

// pointIndexAt installs the committed full set as the backup of every page
// in ids — one range-compressed PRI entry per contiguous run of page IDs
// (§5.2.2) — and returns once the log records describing that are durable,
// which is what makes the sets the index named before safe to drop: a
// restart rebuilds the index from the log and must find the new set there.
// A crash since epoch was read — the caller reads it before it checks the
// DB is open — may have cut the records out of the volatile tail, or laid
// them into the log a restarted DB already owns; it is reported as
// ErrCrashed. The per-page backup copies the ranges supersede are released
// behind the same records. takenAt is the log position the set was taken at:
// a page written since keeps its index LSN, for the set's image of it may
// be older than that write (core.PRI.ReplaceRange).
func (db *DB) pointIndexAt(set uint64, takenAt page.LSN, ids []page.ID, epoch uint64) error {
	// Not beside a checkpoint: a snapshot of the index taken before a range
	// is installed, logged in an end record that follows the range's own
	// record, would lose the range at restart.
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	e := core.Entry{Backup: core.BackupRef{Kind: core.BackupFull, Loc: set}}
	for run := 0; run < len(ids); {
		end := run
		for end+1 < len(ids) && ids[end+1] == ids[end]+1 {
			end++
		}
		replaced := db.pri.ReplaceRange(ids[run], ids[end], e, takenAt)
		lsn, err := db.log.AppendSince(&wal.Record{
			Type:    wal.TypePRIUpdate,
			PageID:  ids[run],
			Payload: core.EncodeSetRange(ids[run], ids[end], e, takenAt),
		}, epoch)
		if err != nil {
			return ErrCrashed
		}
		for _, r := range replaced {
			db.supersedeBackup(r.Page, r.Ref, lsn)
		}
		run = end + 1
	}
	db.log.FlushAll()
	if db.log.Epoch() != epoch {
		return ErrCrashed
	}
	db.releaseDurable()
	return nil
}

// BackupPage takes an explicit backup copy of one page ("a conservative
// policy might take such a copy after every 100 updates", §5.2.1) and
// frees the superseded backup. It runs under backupMu, apart from
// BackupNow: a copy taken before a full backup but registered after it
// would be taken as current — the full backup reset the page's index LSN —
// and the updates between the copy and the set, whose log the backup
// recycles, would be lost.
func (db *DB) BackupPage(id PageID) error {
	if err := db.opErr(); err != nil {
		return err
	}
	db.backupMu.Lock()
	defer db.backupMu.Unlock()
	// The backup must capture the durable state: flush first if dirty.
	if db.pool.IsResident(id) {
		if err := db.pool.FlushPage(id); err != nil && !errors.Is(err, buffer.ErrNotResident) {
			return err
		}
	}
	h, err := db.pool.Fetch(id)
	if err != nil {
		return err
	}
	h.RLock()
	pg := h.Page().Clone()
	h.RUnlock()
	h.Release()
	ref, err := db.store.PutPage(pg)
	if err != nil {
		return err
	}
	// Chaos point: the copy is on the backup device, the index does not
	// name it yet.
	chaos.At("spf.backuppage")
	db.installBackup(id, ref)
	return nil
}

// InjectPageFault arms a fault on the physical slot currently holding the
// logical page.
func (db *DB) InjectPageFault(id PageID, kind FaultKind, sticky bool) error {
	phys, ok := db.pmap.Lookup(id)
	if !ok {
		return fmt.Errorf("%w: page %d", ErrNoSlot, id)
	}
	db.dev.InjectFault(phys, kind, sticky)
	return nil
}

// CorruptPage flips bits in the stored image of the logical page —
// persistent silent damage.
func (db *DB) CorruptPage(id PageID) error {
	phys, ok := db.pmap.Lookup(id)
	if !ok {
		return fmt.Errorf("%w: page %d", ErrNoSlot, id)
	}
	return db.dev.CorruptStored(phys)
}

// EvictPage forces a page out of the buffer pool (writing it back first if
// dirty) so the next access exercises the full read path.
func (db *DB) EvictPage(id PageID) error {
	err := db.pool.Evict(id)
	if errors.Is(err, buffer.ErrNotResident) {
		return nil
	}
	return err
}

// FlushAll writes every dirty page back to the device.
func (db *DB) FlushAll() error { return db.pool.FlushAll() }

// ScrubReport summarizes one scrubbing pass plus the repairs it triggered.
type ScrubReport struct {
	Scanned   int
	BadSlots  int
	Recovered int
	Escalated int
}

// Scrub re-reads every mapped slot verifying checksums (the paper's "disk
// scrubbing", §1) and repairs every failure it finds through the
// background repair queue, waiting for each outcome. A read that reaches
// such a page first repairs it and retires the scrub's ticket: the chain
// is replayed once either way.
func (db *DB) Scrub() (ScrubReport, error) {
	if err := db.opErr(); err != nil {
		return ScrubReport{}, err
	}
	mapped := db.pmap.MappedSlots()
	res := db.dev.Scrub(func(slot storage.PhysID) bool {
		_, ok := mapped[slot]
		return !ok
	})
	rep := ScrubReport{Scanned: res.Scanned, BadSlots: len(res.Failures())}
	for _, slot := range res.Failures() {
		id, ok := mapped[slot]
		if !ok {
			continue
		}
		if err := db.repairLatent(id); err != nil {
			rep.Escalated++
			continue
		}
		rep.Recovered++
	}
	return rep, nil
}

// RecoverPageNow runs single-page recovery for one page explicitly, from
// its registered backup, and returns the recovery report (normally recovery
// happens transparently on the read path).
func (db *DB) RecoverPageNow(id PageID) (core.Report, error) {
	_ = db.EvictPage(id)
	_, rep, err := db.rec.RecoverPage(id, nil)
	return rep, err
}

// Close shuts the database down cleanly: the repair scheduler and the
// maintenance service stop (deterministically — every background
// goroutine is joined; the scheduler first, since the scrub campaign may
// be parked on one of its repair futures), then every dirty page and the
// whole log are flushed (the log itself owns no goroutine to stop). A
// crashed database only stops the background goroutines — its state is
// already frozen for Restart. Close is idempotent. After Close, operations
// fail with ErrClosed.
func (db *DB) Close() error {
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
	db.stopRestore()
	db.stopMaintenance()
	db.stopLifecycle()
	if db.isCrashed() {
		return nil
	}
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	db.log.FlushAll()
	return nil
}

// Crash simulates a system failure: the buffer pool and the unflushed log
// tail vanish; the devices and the stable log survive. The repair
// scheduler and the maintenance service are quiesced first, the same way
// the log quiesces in-flight appenders: an in-flight repair or flush
// batch completes (its writes and appends then predate the crash), queued
// repairs fail with restore.ErrStopped (unparking their waiters — the
// scrub campaign among them, which is why the scheduler stops before the
// service that feeds it), and no background work runs while the log
// truncates its volatile tail — a worker racing the truncation could
// otherwise read freed log bytes or write a page whose log just vanished,
// breaking the WAL rule.
func (db *DB) Crash() {
	db.mu.Lock()
	db.crashed = true
	db.mu.Unlock()
	db.stopRestore()
	db.stopMaintenance()
	db.stopLifecycle()
	db.log.Crash()
	db.pool.Crash()
}

// RestartReport quantifies a restart recovery.
type RestartReport struct {
	Analysis recovery.AnalysisResult
	// Prep summarizes instant-restart preparation. Populated only when
	// OnDemand is true; otherwise Redo holds the synchronous pass.
	Prep recovery.PrepReport
	Redo recovery.RedoReport
	Undo recovery.UndoReport
	// OnDemand reports that redo ran as on-demand per-page replay (the
	// instant-restart path) rather than a synchronous forward log scan.
	OnDemand bool
	Duration time.Duration
}

// Restart performs ARIES-style restart recovery (analysis, redo, undo —
// §5.1.2) over the surviving log and device and returns a fresh, usable
// DB. The page recovery index is reconstructed during analysis and
// repaired during redo exactly per Fig. 12.
//
// Redo is on demand (ARCHITECTURE.md, recovery): recovery.PrepareRedo
// raises each dirty page's recovery-index expectation to the chain head
// analysis found for it — O(active pages) — every such page is enqueued
// with the repair scheduler, shortest log span first, and Restart returns
// before redo completes. The first fetch of such a page fails the PageLSN
// cross-check and recovers the page itself — single-page recovery with the
// stale on-disk image as its base, so only the missing chain tail is
// replayed — retiring its ticket. DrainRestore is the "bulk redo finished"
// barrier.
//
// Redo follows what the read path can detect: on demand needs a read to
// find a stale page, which takes single-page recovery and the PageLSN
// check both. Without either, redo is the synchronous forward log scan
// (recovery.Redo, Fig. 12's index repair included) — the restart of the
// traditional baseline and of the no-PageLSN-check ablation.
func (db *DB) Restart() (*DB, *RestartReport, error) {
	start := time.Now()
	analysis, err := recovery.Analyze(db.log, db.opts.DataSlots)
	if err != nil {
		return nil, nil, fmt.Errorf("spf: restart analysis: %w", err)
	}
	rep := &RestartReport{Analysis: *analysis}
	rep.OnDemand = !db.opts.DisableSinglePageRecovery && !db.opts.DisablePageLSNCheck
	var backlog []recovery.RedoPage
	if rep.OnDemand {
		// Preparation mutates the recovery index, so it runs before the
		// pool exists and any read can fault.
		var prepRep *recovery.PrepReport
		backlog, prepRep = recovery.PrepareRedo(analysis)
		rep.Prep = *prepRep
	}
	ndb := newDB(db.opts, db.dev, db.store, db.log, analysis.Map, analysis.PRI, db)
	ndb.inheritParked(db)
	rep.Undo, err = ndb.finishRecovery(analysis, func() error {
		if rep.OnDemand {
			chaos.At("restart.prep")
			ndb.workOff(backlog)
			return nil
		}
		redoRep, err := recovery.Redo(recovery.RedoDeps{
			Log: ndb.log, Pool: ndb.pool, Map: ndb.pmap, PRI: ndb.pri,
			Applier: applier{}, PageSize: db.opts.PageSize,
			LogPRIRepair: func(pid page.ID, lsn page.LSN) {
				ndb.log.Append(&wal.Record{
					Type: wal.TypePRIUpdate, PageID: pid,
					Payload: core.EncodeWriteComplete(core.WriteCompletePayload{PageLSN: lsn}),
				})
			},
		}, analysis)
		rep.Redo = *redoRep
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("spf: restart: %w", err)
	}
	rep.Duration = time.Since(start)
	return ndb, rep, nil
}

// finishRecovery is the tail Restart and RecoverMedia share, run on the DB
// newDB just built over the analysed map and index. The two differ only in
// redo — how the pages to bring back are marked and worked off, on demand
// or before returning. What follows is the same: roll back the losers,
// reload the catalog, checkpoint, start the background services. On any
// error the new DB's goroutines are stopped and it is dropped.
func (db *DB) finishRecovery(a *recovery.AnalysisResult, redo func() error) (recovery.UndoReport, error) {
	fail := func(err error) (recovery.UndoReport, error) {
		db.stopRestore()
		db.stopLifecycle()
		return recovery.UndoReport{}, err
	}
	if err := redo(); err != nil {
		return fail(fmt.Errorf("redo: %w", err))
	}
	// Undo runs while background redo drains: each page a rollback
	// touches is fetched through the validating pool read, so its redo
	// completes right there — per page, redo still strictly precedes undo.
	undoRep, err := recovery.Undo(recovery.UndoDeps{Txns: db.txns}, a)
	if err != nil {
		return fail(fmt.Errorf("undo: %w", err))
	}
	if err := db.reopenCatalog(); err != nil {
		return fail(err)
	}
	// The checkpoint snapshots the raised recovery-index expectations, so
	// a second crash before the drain completes still detects every stale
	// page on read, and recovers it from its stale image as this one would.
	if _, err := db.Checkpoint(); err != nil {
		return fail(err)
	}
	db.startMaintenance()
	db.startLifecycle()
	return *undoRep, nil
}

// workOff hands a recovery's pages to the repair scheduler, each with the
// log span its replay covers as cost; the DB is returned before they drain.
func (db *DB) workOff(pages []recovery.RedoPage) {
	db.backlog = len(pages)
	for _, p := range pages {
		db.sched.Enqueue(p.ID, p.Cost)
	}
}

// reopenCatalog finds the meta page (the lowest TypeMeta page) and reloads
// the index registry. The registry maps each name to its root page; the
// root page's type tags the engine (TypeHash → linear-hash directory,
// otherwise a Foster B-tree root), so the catalog format never changed
// when the second engine arrived.
func (db *DB) reopenCatalog() error {
	for _, id := range db.pmap.Pages() {
		h, err := db.pool.Fetch(id)
		if err != nil {
			continue
		}
		typ := h.Page().Type()
		if typ != page.TypeMeta {
			h.Release()
			continue
		}
		db.metaID = id
		h.RLock()
		reg, derr := btree.DecodeRegistry(h.Page().Payload())
		h.RUnlock()
		h.Release()
		if derr != nil {
			return derr
		}
		for name, root := range reg {
			rh, err := db.pool.Fetch(root)
			if err != nil {
				return fmt.Errorf("spf: reopening index %q: %w", name, err)
			}
			rootType := rh.Page().Type()
			rh.Release()
			db.engines[name] = db.openEngine(name, root, rootType)
		}
		return nil
	}
	return errors.New("spf: meta page not found after restart")
}

// FailDevice simulates a whole-device media failure. The repair scheduler
// and maintenance stop first: repairs against a failed device can only
// escalate, and a scrub campaign sweeping it would report every slot as
// one.
func (db *DB) FailDevice() {
	db.mu.Lock()
	db.crashed = true
	db.mu.Unlock()
	db.stopRestore()
	db.stopMaintenance()
	db.stopLifecycle()
	db.dev.FailDevice()
	db.pool.Crash()
}

// MediaRecoveryReport quantifies a media recovery.
type MediaRecoveryReport struct {
	Media    recovery.MediaReport
	Undo     recovery.UndoReport
	Duration time.Duration
}

// RecoverMedia replaces the failed device and brings the database back
// from the backups that outlived it plus the log (§5.1.3), reshaped as
// instant restore (Sauer et al.): it runs the log analysis a restart runs,
// points the analysed page map and page recovery index at the new device
// (recovery.PrepareMedia, O(pages)), enqueues every page with the repair
// scheduler, and returns a usable DB. A read of a not-yet-restored page
// restores that one page itself and retires its ticket; background workers
// drain the rest, and DrainRestore blocks until they have. Transactions
// active at the failure are rolled back.
//
// Instant restore is single-page recovery of every page, so a database
// with DisableSinglePageRecovery set cannot be restored and is refused.
func (db *DB) RecoverMedia() (*DB, *MediaRecoveryReport, error) {
	start := time.Now()
	if db.opts.DisableSinglePageRecovery {
		return nil, nil, errors.New("spf: media recovery restores every page by single-page recovery, which DisableSinglePageRecovery turns off")
	}
	setID := db.store.LatestSet()
	if setID == 0 {
		return nil, nil, errors.New("spf: no full backup available for media recovery")
	}
	db.dev.Revive()
	analysis, err := recovery.Analyze(db.log, db.opts.DataSlots)
	if err != nil {
		return nil, nil, fmt.Errorf("spf: media recovery analysis: %w", err)
	}
	backlog, mediaRep, err := recovery.PrepareMedia(db.store, analysis, setID)
	if err != nil {
		return nil, nil, fmt.Errorf("spf: media recovery: %w", err)
	}
	ndb := newDB(db.opts, db.dev, db.store, db.log, analysis.Map, analysis.PRI, db)
	ndb.inheritParked(db)
	undoRep, err := ndb.finishRecovery(analysis, func() error {
		ndb.workOff(backlog)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("spf: media recovery: %w", err)
	}
	rep := &MediaRecoveryReport{Media: *mediaRep, Undo: undoRep, Duration: time.Since(start)}
	return ndb, rep, nil
}

// DrainRestore blocks until the repair scheduler's queue is empty (every
// scheduled repair completed) or the scheduler stops. After RecoverMedia
// it is the "bulk restore finished" barrier; reads need not wait for it —
// they are served on demand throughout.
func (db *DB) DrainRestore() { db.sched.Drain() }

// SimulatedIO returns the accumulated simulated I/O time of the data
// device, the log, and the backup store.
func (db *DB) SimulatedIO() (data, log, bak time.Duration) {
	return db.dev.Clock().Elapsed(), db.log.Clock().Elapsed(), db.store.Device().Clock().Elapsed()
}

// ResetSimulatedIO zeroes all three clocks.
func (db *DB) ResetSimulatedIO() {
	db.dev.Clock().Reset()
	db.log.Clock().Reset()
	db.store.Device().Clock().Reset()
}

// PRI exposes the page recovery index for inspection by experiments.
func (db *DB) PRI() *core.PRI { return db.pri }

// LogManager exposes the write-ahead log for inspection by experiments.
func (db *DB) LogManager() *wal.Manager { return db.log }

// Device exposes the data device for fault campaigns.
func (db *DB) Device() *storage.Device { return db.dev }

// PageMapLen reports how many logical pages exist.
func (db *DB) PageMapLen() int { return db.pmap.Len() }

// Pages lists all logical page IDs in ascending order.
func (db *DB) Pages() []PageID { return db.pmap.Pages() }

// PhysicalSlot resolves a logical page to its current device slot.
func (db *DB) PhysicalSlot(id PageID) (storage.PhysID, bool) { return db.pmap.Lookup(id) }
