package spf

import (
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/wal"
)

// initLifecycle builds the archiver, the one owner of log truncation, and
// with Options.Lifecycle.Enabled its archive: the store (inherited from
// prev across Restart and RecoverMedia — the archive is a durable device
// and survives crashes), the retrying archive reader wired into the WAL's
// truncated-read fallback, and the engines' op codecs through which the
// archiver stores committed updates redo-only. The background loop is NOT
// started here — call startLifecycle once the DB is fully constructed —
// but the archiver exists immediately so the bootstrap (or post-restart)
// checkpoint can push its redo horizon.
func (db *DB) initLifecycle(prev *DB) {
	lo := db.opts.Lifecycle
	if lo.Enabled {
		if prev != nil && prev.arch != nil {
			db.arch = prev.arch
		} else {
			db.arch = archive.NewStore(iosim.Instant, wal.FirstLSN())
		}
		db.log.SetArchive(db.arch.NewReader())
	}
	interval := lo.Interval
	if interval == 0 {
		interval = 25 * time.Millisecond
	}
	db.archiver = archive.New(db.log, db.arch, archive.Config{
		SegmentBytes: lo.SegmentBytes,
		Interval:     interval,
		ReleaseFloor: db.archiveReleaseFloor,
		RedoOnly:     applier{}.RedoOnly,
		Logf:         lo.Logf,
	})
	// The surviving backup sets re-establish the backup horizon after a
	// restart. The oldest counts: a crash between a backup's commit and the
	// drop of its predecessors leaves both, and the index the restart
	// rebuilt may still name the older one for pages whose range records
	// the crash cut from the log.
	if sets := db.store.Sets(); len(sets) > 0 {
		if lsn, err := db.store.SetLSN(sets[0]); err == nil {
			db.archiver.SetBackupHorizon(lsn)
		}
	}
}

// startLifecycle launches the archiver's background loop (no-op when
// Lifecycle.Interval is negative).
func (db *DB) startLifecycle() { db.archiver.Start() }

// stopLifecycle joins the archiver loop. Close, Crash, and FailDevice
// call it BEFORE the log crashes or closes: an archiver step reads the
// live log and calls Recycle, so no lifecycle work may race the log's
// seal — the same WAL-safety ordering stopRestore and stopMaintenance
// observe. Idempotent.
func (db *DB) stopLifecycle() { db.archiver.Stop() }

// archiveReleaseFloor is the engine-side clamp on the release horizon:
// history is retained — in the archive, or in the live log without one —
// while anything can still need it, namely
//
//   - undo of an active transaction (its chain of log records starts at
//     its begin LSN; a loser adopted by restart carries a conservative
//     zero, blocking release until it resolves), and
//   - log-backed backup references in the page recovery index — a page
//     whose registered "backup" is its TypeFormat log record must keep
//     that record readable for full single-page recovery.
func (db *DB) archiveReleaseFloor() page.LSN {
	floor := db.log.EndLSN()
	if lsn, ok := db.txns.OldestActiveBeginLSN(); ok && lsn < floor {
		floor = lsn
	}
	db.pri.ForEachRange(func(lo, hi page.ID, e core.Entry) bool {
		if e.Backup.Kind == core.BackupFormat {
			if l := page.LSN(e.Backup.Loc); l < floor {
				floor = l
			}
		}
		return true
	})
	return floor
}

// ArchiveNow runs one synchronous lifecycle pass: any flushed-but-
// unarchived history is archived (segment-full or not), then segments
// recycle and archived history releases up to the current horizons.
// Deterministic alternative to waiting on the background loop; without
// the archive it only recycles.
func (db *DB) ArchiveNow() error { return db.archiver.Step(true) }

// ArchivePaused reports whether the archive device is unavailable and
// segment recycling is therefore suspended (the live log grows until the
// device recovers). Always false without the archive.
func (db *DB) ArchivePaused() bool { return db.archiver.Paused() }

// Archive exposes the archive store for fault campaigns and inspection
// by experiments. Nil without Lifecycle.Enabled.
func (db *DB) Archive() *archive.Store { return db.arch }
