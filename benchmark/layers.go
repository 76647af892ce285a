package main

import (
	"runtime"

	"repro/internal/server"
	"repro/spf"
)

// Per-layer numbers come from outside the engine, from two sources only:
// deltas of the public snapshots (db.Metrics, Index.Metrics, the server's
// registry) across a measured window, and wall time of calls the
// benchmark itself makes into each layer's exported functions (probes.go).

// ctr indexes one cumulative counter of a snapshot.
type ctr int

const (
	cPoolHits ctr = iota
	cPoolMisses
	cPoolEvictions
	cPoolValidationFailures
	cPoolEscalations
	cDevReads
	cDevWrites
	cLogAppends
	cLogBytes
	cLogForcedCommits
	cLogGroupBatches
	cLogGroupWaiters
	cLogRecycledSegments
	cLogArchiveReads
	cTxnCommitted
	cTxnAborted
	cTxnUpdatesLogged
	cRecRecoveries
	cRecRecordsApplied
	cRecEscalations
	cMaintFlushBatches
	cMaintPagesFlushed
	cMaintFlushErrors
	cResEnqueued
	cResCoalesced
	cResUrgent
	cResPromotions
	cResRequeues
	cResReadRetries
	cResFailed
	cResRepaired
	cArchRunsWritten
	cArchBytes
	cArchReads
	cArchRetries
	cRedoFast
	cRedoFallbacks
	cRetiredSlots
	cIxSplits
	cIxAdoptions
	cIxOptHits
	cIxOptFallbacks
	cIxBucketSplits
	cIxOverflowPages
	cSrvGetSeconds
	cSrvGetCount
	cSrvPutSeconds
	cSrvPutCount
	cSrvScanSeconds
	cSrvScanCount
	cSrvTimeouts
	cSrvBadFrames
	cMallocs
	numCtrs
)

// outlivesDB marks the counters whose source survives Restart and
// RecoverMedia (the device, the log, the archive store, the process);
// the others belong to one DB incarnation and restart from zero.
var outlivesDB = func() (o [numCtrs]bool) {
	for c := cDevReads; c <= cLogArchiveReads; c++ {
		o[c] = true
	}
	for c := cArchRunsWritten; c <= cArchRetries; c++ {
		o[c] = true
	}
	o[cRetiredSlots], o[cMallocs] = true, true
	return o
}()

// counters is one snapshot, or a difference or sum of snapshots.
type counters [numCtrs]float64

func (a counters) minus(b counters) counters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a counters) plus(b counters) counters {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// snapshot gathers every counter the per-layer metrics are derived from.
// Pool, transaction, restore, maintenance and index counters belong to
// one DB incarnation and restart from zero after Restart/RecoverMedia;
// callers difference within an incarnation and sum across them.
func (e *env) snapshot() counters {
	var c counters
	m := e.db.Metrics()
	c[cPoolHits] = float64(m.Pool.Hits)
	c[cPoolMisses] = float64(m.Pool.Misses)
	c[cPoolEvictions] = float64(m.Pool.Evictions)
	c[cPoolValidationFailures] = float64(m.Pool.ValidationFailures)
	c[cPoolEscalations] = float64(m.Pool.Escalations)
	c[cDevReads] = float64(m.Device.Reads)
	c[cDevWrites] = float64(m.Device.Writes)
	c[cLogAppends] = float64(m.Log.Appends)
	c[cLogBytes] = float64(m.Log.BytesAppended)
	c[cLogForcedCommits] = float64(m.Log.ForcedCommits)
	c[cLogGroupBatches] = float64(m.Log.GroupCommitBatches)
	c[cLogGroupWaiters] = float64(m.Log.GroupCommitWaiters)
	c[cLogRecycledSegments] = float64(m.Log.RecycledSegments)
	c[cLogArchiveReads] = float64(m.Log.ArchiveReads)
	c[cTxnCommitted] = float64(m.Txns.UserCommitted)
	c[cTxnAborted] = float64(m.Txns.UserAborted)
	c[cTxnUpdatesLogged] = float64(m.Txns.UpdatesLogged)
	c[cRecRecoveries] = float64(m.Recovery.Recoveries)
	c[cRecRecordsApplied] = float64(m.Recovery.RecordsApplied)
	c[cRecEscalations] = float64(m.Recovery.Escalations)
	c[cMaintFlushBatches] = float64(m.Maintenance.FlushBatches)
	c[cMaintPagesFlushed] = float64(m.Maintenance.PagesFlushed)
	c[cMaintFlushErrors] = float64(m.Maintenance.FlushErrors)
	c[cResEnqueued] = float64(m.Restore.Enqueued)
	c[cResCoalesced] = float64(m.Restore.Coalesced)
	c[cResUrgent] = float64(m.Restore.UrgentRequests)
	c[cResPromotions] = float64(m.Restore.Promotions)
	c[cResRequeues] = float64(m.Restore.Requeues)
	c[cResReadRetries] = float64(m.Restore.ReadRetries)
	c[cResFailed] = float64(m.Restore.Failed)
	c[cResRepaired] = float64(m.Restore.Repaired)
	c[cArchRunsWritten] = float64(m.Archive.RunsWritten)
	c[cArchBytes] = float64(m.Archive.BytesArchived)
	c[cArchReads] = float64(m.Archive.Reads)
	c[cArchRetries] = float64(m.Archive.Retries)
	c[cRedoFast] = float64(m.RestartRedo.FastRedos)
	c[cRedoFallbacks] = float64(m.RestartRedo.Fallbacks)
	c[cRetiredSlots] = float64(m.RetiredSlots)

	im := e.ix.Metrics()
	c[cIxSplits] = float64(im.Splits)
	c[cIxAdoptions] = float64(im.Adoptions)
	c[cIxOptHits] = float64(im.OptimisticHits)
	c[cIxOptFallbacks] = float64(im.OptimisticFallbacks)
	c[cIxBucketSplits] = float64(im.BucketSplits)
	c[cIxOverflowPages] = float64(im.OverflowPages)

	if e.ws != nil {
		reg := e.ws.srv.Registry()
		for i, op := range []uint8{server.OpGet, server.OpPut, server.OpScan} {
			h := reg.Histogram("spf_server_request_seconds", "", nil, "op", server.OpName(op))
			c[cSrvGetSeconds+ctr(2*i)] = h.Sum()
			c[cSrvGetCount+ctr(2*i)] = float64(h.Count())
		}
		c[cSrvTimeouts] = float64(reg.Counter("spf_server_deadline_expiries_total", "").Value())
		c[cSrvBadFrames] = float64(reg.Counter("spf_server_malformed_frames_total", "").Value())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cMallocs] = float64(ms.Mallocs)
	return c
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// opCounts is how many operations of each kind the window saw.
type opCounts struct {
	gets, puts, scans float64
}

// counterMetrics reports every per-layer metric that is a counter delta d
// over a window, normalised per operation. final is a snapshot of the
// gauges at the window's end.
func counterMetrics(res *result, d counters, ops opCounts, final spf.Metrics, kind spf.IndexKind) {
	out := func(name string, v float64) { res.set(name, v, 0) }
	all := ops.gets + ops.puts + ops.scans
	repairs := d[cRecRecoveries]
	fetches := d[cPoolHits] + d[cPoolMisses]

	out("server.allocs_per_op", ratio(d[cMallocs], all))
	out("server.timeouts", d[cSrvTimeouts])
	out("server.bad_frames", d[cSrvBadFrames])

	if kind == spf.KindHash {
		out("hashindex.bucket_splits", d[cIxBucketSplits])
		out("hashindex.overflow_pages", d[cIxOverflowPages])
	} else {
		out("btree.optimistic_hit_ratio", ratio(d[cIxOptHits], d[cIxOptHits]+d[cIxOptFallbacks]))
		out("btree.splits", d[cIxSplits])
		out("btree.adoptions", d[cIxAdoptions])
	}

	out("buffer.hit_ratio", ratio(d[cPoolHits], fetches))
	out("buffer.fetches_per_op", ratio(fetches, all))
	out("buffer.evictions_per_op", ratio(d[cPoolEvictions], all))
	out("buffer.validation_failures", d[cPoolValidationFailures])
	out("buffer.escalations", d[cPoolEscalations])

	out("storage.reads_per_get", ratio(d[cDevReads], ops.gets))
	out("storage.writes_per_put", ratio(d[cDevWrites], ops.puts))
	out("storage.retired_slots", d[cRetiredSlots])

	out("txn.updates_per_commit", ratio(d[cTxnUpdatesLogged], d[cTxnCommitted]))
	out("txn.aborts", d[cTxnAborted])

	out("wal.bytes_per_put", ratio(d[cLogBytes], ops.puts))
	out("wal.records_per_put", ratio(d[cLogAppends], ops.puts))
	out("wal.forces_per_commit", ratio(d[cLogForcedCommits], d[cTxnCommitted]))
	out("wal.group_waiters_per_batch", ratio(d[cLogGroupWaiters], d[cLogGroupBatches]))
	out("wal.live_segments", float64(final.Log.LiveSegments))
	out("wal.recycled_segments", d[cLogRecycledSegments])
	out("wal.archive_reads_per_repair", ratio(d[cLogArchiveReads], repairs))

	out("core.escalations", d[cRecEscalations])
	out("core.pri_bytes_per_page", ratio(float64(final.PRI.Bytes), float64(final.PRI.Pages)))
	out("core.pri_ranges", float64(final.PRI.Ranges))

	out("restore.coalesced_ratio", ratio(d[cResCoalesced], d[cResEnqueued]))
	out("restore.promotions", d[cResPromotions])
	out("restore.requeues", d[cResRequeues])
	out("restore.read_retries", d[cResReadRetries])
	out("restore.failed", d[cResFailed])

	out("recovery.fast_redo_ratio", ratio(d[cRedoFast], d[cRedoFast]+d[cRedoFallbacks]))

	out("archive.bytes_per_log_byte", ratio(d[cArchBytes], d[cLogBytes]))
	out("archive.runs_written", d[cArchRunsWritten])
	out("archive.reads_per_repair", ratio(d[cArchReads], repairs))
	out("archive.retries", d[cArchRetries])

	out("maintenance.pages_per_flush_batch", ratio(d[cMaintPagesFlushed], d[cMaintFlushBatches]))
	out("maintenance.pages_flushed_per_put", ratio(d[cMaintPagesFlushed], ops.puts))
	out("maintenance.flush_errors", d[cMaintFlushErrors])
}
