package spf

import (
	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/pageop"
)

// initLifecycle builds the archiver, the one owner of log truncation, and
// wires the archive, if there is one, into it: the retrying archive reader
// serves the WAL's truncated reads, and the engines' op codecs let the
// archiver store committed updates redo-only. The background loop is NOT
// started here — startBackground starts it once the DB is fully
// constructed — but the archiver exists immediately so the bootstrap (or
// post-restart) checkpoint can push its redo horizon.
func (db *DB) initLifecycle() {
	lo := db.opts.Lifecycle
	if db.arch != nil {
		db.log.SetArchive(db.arch.NewReader())
	}
	db.archiver = archive.New(db.log, db.arch, archive.Config{
		SegmentBytes: lo.SegmentBytes,
		ReleaseFloor: db.archiveReleaseFloor,
		RedoOnly:     pageop.RedoOnly,
		Logf:         lo.Logf,
		Clock:        db.opts.clock,
	})
	// The surviving backup sets re-establish the backup horizon after a
	// restart. The oldest counts: a crash after a backup's commit, before
	// its index records were stable, leaves the index the restart rebuilt
	// naming the older set, and the sweep keeps both — the older one for
	// the index, the newer as the newest.
	if sets := db.store.Sets(); len(sets) > 0 {
		if lsn, err := db.store.SetLSN(sets[0]); err == nil {
			db.archiver.SetBackupHorizon(lsn)
		}
	}
}

// archiveReleaseFloor is the engine-side clamp on the release horizon:
// history is retained — in the archive, or in the live log without one —
// while anything can still need it, namely
//
//   - undo of an active transaction (its chain of log records starts at
//     its begin LSN; a loser adopted by restart carries a conservative
//     zero, blocking release until it resolves), and
//   - log-held backups the page recovery index names — a page whose
//     backup is its TypeFormat record or a TypeImage copy must keep that
//     record readable for full single-page recovery.
func (db *DB) archiveReleaseFloor() page.LSN {
	floor := db.log.EndLSN()
	if lsn, ok := db.txns.OldestActiveBeginLSN(); ok && lsn < floor {
		floor = lsn
	}
	db.pri.ForEachRange(func(lo, hi page.ID, e core.Entry) bool {
		if e.Backup.Kind == core.BackupLog {
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
