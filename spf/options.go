// Package spf is a transactional storage engine built to reproduce Graefe
// and Kuno's "Definition, Detection, and Recovery of Single-Page Failures,
// a Fourth Class of Database Failures" (PVLDB 5(7), 2012).
//
// The engine provides named indexes over a simulated, fault-injectable
// storage device, with write-ahead logging, ARIES-style restart recovery,
// full-backup media recovery, and — the paper's contribution — a page
// recovery index enabling single-page recovery: a page that fails its
// read-path checks is rebuilt from its most recent backup plus the
// per-page log chain while the reading transaction merely waits, instead
// of escalating to a media failure.
//
// # Choosing an engine
//
// Two storage engines implement the index surface behind one seam:
// KindBTree (a Foster B-tree, the default) and KindHash (a page-based
// linear-hashing table). Select per database with Options.IndexKind or
// per index with DB.CreateIndexKind; DB.CreateIndex uses the database
// default. Choose the B-tree when range Scans matter or keys are
// retrieved in order — it keeps keys sorted globally and its optimistic
// resident-read path is the fastest point lookup in the system. Choose
// the hash engine for point-op-dominated working sets where ordered
// iteration is incidental: lookups are O(1) directory→bucket hops
// independent of key count, and Scan still works but enumerates in
// bucket order (sorted only within a bucket). Everything below the seam
// is shared and engine-blind — detection (checksums plus per-engine
// cross-checks: fence keys for the B-tree, bucket/level/chain stamps for
// the hash table), single-page repair, instant restart, media restore,
// scrubbing, and the restore scheduler treat both engines' pages
// identically, and both kinds can coexist in one database inside one
// transaction. E34 in internal/bench measures the two side by side on an
// identical seeded workload, and the model-based checker
// (checker_test.go) faults, detects and repairs every page class of both.
//
// Restart after a system failure is instant (after Sauer et al.): instead
// of replaying the log forward before opening for business, Restart tells
// the page recovery index, for every page that was dirty at the crash, the
// chain head log analysis found for it — an O(active pages) preparation —
// queues those pages for background repair, shortest log span first, and
// returns. The first read of such a page finds its disk image stale, as it
// would after a lost write, and repairs it the same way: single-page
// recovery takes what the read loaded as its first backup — the current
// disk image is a free backup as of its own PageLSN — and replays only the
// missing tail of the page's chain onto it; a damaged image offers nothing
// and the page is rebuilt from its registered backup, a nested single-page
// failure repaired inside system recovery. Nothing but the index remembers
// which pages are stale, so a second crash mid-drain changes nothing. A
// database whose reads cannot find a stale page — DisableSinglePageRecovery
// or DisablePageLSNCheck set — restarts with the synchronous forward-scan
// redo instead.
package spf

import (
	"time"

	"repro/internal/clock"
	"repro/internal/iosim"
)

// Options configures a database.
type Options struct {
	// PageSize is the page size in bytes (default 8192).
	PageSize int
	// DataSlots is the data device capacity in pages (default 65536).
	// It is a bound, not an allocation: the device's memory is the slots
	// written so far, so a large capacity costs nothing until it is used.
	DataSlots int
	// BackupSlots is the backup device capacity in pages (default
	// 2*DataSlots): it holds full sets only — the live one and, while
	// BackupNow runs, the one being written. Like DataSlots, it costs
	// nothing until written.
	BackupSlots int
	// PoolFrames is the buffer pool size in frames (default 1024).
	PoolFrames int
	// DataProfile, LogProfile, BackupProfile select the simulated I/O
	// cost models. Zero value charges nothing (unit-test speed).
	DataProfile   iosim.Profile
	LogProfile    iosim.Profile
	BackupProfile iosim.Profile
	// GroupCommitWindow is ignored; kept for source compatibility.
	// Concurrent commits coalesce behind the log flush in progress, not
	// behind a timer, and a lone commit flushes at once; commits
	// interrupted by a simulated Crash report wal.ErrCommitLost instead
	// of claiming durability.
	GroupCommitWindow time.Duration
	// DisableSinglePageRecovery turns off the page recovery index and
	// the single-page recovery path, which are on by default: a failed
	// page then escalates to media failure, as in a traditional engine —
	// the Fig. 1 baseline. RecoverMedia, which restores every page by
	// single-page recovery, is refused.
	DisableSinglePageRecovery bool
	// DisablePageLSNCheck turns off the PageLSN cross-check against the
	// page recovery index on every buffer-pool read (ablation A2). Lost
	// writes then go undetected until a fence check or checksum fails.
	DisablePageLSNCheck bool
	// BackupEveryNUpdates bounds the per-page log chain, and hence
	// single-page recovery time (§6): a page backup is taken once N updates
	// would otherwise have to be replayed. Zero selects the default, 64; a
	// negative value never takes one. A page backup is one TypeImage log
	// record holding the page's image: the live log, or the archive once
	// the log is recycled, holds it, not the backup device, and appending
	// it installs it. Two places copy a page:
	//   - the write-back that brings the page's count of written-back
	//     updates (kept in its recovery index entry) to N copies the image
	//     it writes, so a page still in the pool is backed up when it is
	//     next written;
	//   - a repair that replays N or more records — a read, a restore
	//     worker or the scrub rebuilding the page — copies the image it
	//     rebuilt, so the page's next repair starts from that copy instead
	//     of replaying the chain again.
	// Counts live in memory only: a restart starts every page at zero, and
	// the repair that rebuilds a page the crash left stale is what bounds
	// its chain then.
	BackupEveryNUpdates int
	// Maintenance configures the background maintenance service: async
	// dirty-page write-back with grouped PRI logging, plus the continuous
	// scrub campaign that detects and repairs latent single-page failures
	// online. Disabled unless Maintenance.Enabled is set. Write-back has
	// one trigger, pool pressure: the flusher drains once a quarter of the
	// pool is dirty, and a page below that waits for eviction, the next
	// Checkpoint (which flushes the dirty page table and so bounds redo),
	// BackupNow or Close — no timer rewrites it. The campaign sweeps the
	// device's written slots at a fixed 2000 pages/s, starting a sweep at
	// most once every 10 s, the first 10 s after the open. The service
	// survives Restart and RecoverMedia (a fresh one is started for the
	// recovered database) and is quiesced deterministically by Close,
	// Crash, and FailDevice.
	Maintenance MaintenanceOptions
	// Restore configures the background repair scheduler, which drains
	// the repair work nobody is waiting to read: scrub findings, the
	// redo backlog of an instant restart, the pages of a replaced
	// device. Every database has one; it never serves a reader, for the
	// read that finds a page bad repairs it. A fresh one starts with the
	// database Restart and RecoverMedia return, and Close, Crash, and
	// FailDevice quiesce it deterministically (workers joined before the
	// log is sealed).
	Restore RestoreOptions
	// Lifecycle configures the bounded log lifecycle. The live log is
	// always truncated: history below both the checkpoint redo horizon and
	// the release horizon — the newest full backup set, clamped by the
	// oldest active transaction's begin and by log-backed backup
	// references — is needed by no recovery, and every BackupNow recycles
	// it before returning. Lifecycle.Enabled adds the log archive, which
	// keeps the history between the two horizons: a background archiver
	// drains flushed history into a sorted, page-partitioned archive, live
	// segments recycle once the checkpoint redo horizon and the archive
	// both cover them, and archived history is garbage-collected below the
	// release horizon. Without the archive that history stays in the live
	// log until a newer full backup passes it.
	Lifecycle LifecycleOptions
	// IndexKind is the engine CreateIndex builds: KindBTree (the zero
	// value — ordered keys, range scans) or KindHash (linear hashing,
	// point-op oriented). CreateIndexKind overrides it per index; both
	// engines share every layer below the Engine seam.
	IndexKind IndexKind
	// Seed makes fault injection reproducible.
	Seed int64

	// clock paces the scrub campaign and the archiver; nil is the wall
	// clock. Tests in this package set a manual one and step it. Restart
	// and RecoverMedia carry it over with the rest of the options.
	clock *clock.Clock
}

// LifecycleOptions tunes the log lifecycle (internal/archive). The zero
// value of every field but Enabled selects the defaults noted per field.
// The archiver's cadence is fixed: it steps every 25 ms, and BackupNow and
// ArchiveNow step at once.
type LifecycleOptions struct {
	// Enabled adds the log archive: the archiver drains history into it,
	// live WAL segments recycle behind the checkpoint horizon, and
	// per-page chain replays transparently fall back to the archive for
	// recycled history. Without it the live log is truncated only below
	// the release horizon a full backup sets.
	Enabled bool
	// SegmentBytes is the archive run granularity: a run is sealed once
	// this many flushed-but-unarchived log bytes accumulate (default
	// 256 KiB). Small values bound live-log memory tightly at the cost of
	// more, smaller runs.
	SegmentBytes int64
	// Logf receives the graceful-degradation log lines (archive
	// unavailable / recovered). Nil is silent.
	Logf func(format string, args ...any)
}

// MaintenanceOptions switches the background maintenance service on. Its
// pace is fixed: see Options.Maintenance.
type MaintenanceOptions struct {
	// Enabled starts the service when the database opens.
	Enabled bool
}

// RestoreOptions tunes the repair scheduler (internal/restore). The zero
// value selects the defaults noted on each field.
type RestoreOptions struct {
	// Workers is the number of repair worker goroutines (default 2).
	Workers int
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = 8192
	}
	if o.DataSlots == 0 {
		o.DataSlots = 65536
	}
	if o.BackupSlots == 0 {
		o.BackupSlots = 2 * o.DataSlots
	}
	if o.PoolFrames == 0 {
		o.PoolFrames = 1024
	}
	if o.BackupEveryNUpdates == 0 {
		o.BackupEveryNUpdates = 64
	}
	return o
}
