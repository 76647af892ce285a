package server

import (
	"runtime"

	"repro/internal/metrics"
	"repro/internal/wal"
	"repro/spf"
)

// RegisterEngineCollector wires the unified engine snapshot (spf.DB.Metrics)
// into reg as a scrape-time collector: every subsystem counter renders as a
// spf_* sample on each scrape, with no sampling goroutine and no second set
// of counters to drift. Both the /metrics endpoint and the STATS wire op
// render through the same registry, so they always agree.
func RegisterEngineCollector(reg *metrics.Registry, db *spf.DB) {
	reg.RegisterCollector(func(e *metrics.Emitter) {
		m := db.Metrics()

		e.Counter("spf_pool_hits_total", "Buffer pool hits.", float64(m.Pool.Hits))
		e.Counter("spf_pool_misses_total", "Buffer pool misses.", float64(m.Pool.Misses))
		e.Counter("spf_pool_evictions_total", "Buffer pool evictions.", float64(m.Pool.Evictions))
		e.Counter("spf_pool_writes_total", "Buffer pool write-backs.", float64(m.Pool.Writes))
		e.Counter("spf_pool_validation_failures_total", "Page validation failures on fetch.", float64(m.Pool.ValidationFailures))
		e.Counter("spf_pool_recoveries_total", "Single-page recoveries triggered by fetch.", float64(m.Pool.Recoveries))
		e.Counter("spf_pool_escalations_total", "Fetch failures escalated past repair.", float64(m.Pool.Escalations))

		e.Counter("spf_device_reads_total", "Device page reads.", float64(m.Device.Reads))
		e.Counter("spf_device_writes_total", "Device page writes.", float64(m.Device.Writes))
		e.Counter("spf_device_read_errors_total", "Device read errors surfaced.", float64(m.Device.ReadErrors))
		e.Counter("spf_device_corrupt_returns_total", "Corrupt images returned by the device.", float64(m.Device.CorruptReturns))
		e.Counter("spf_device_lost_writes_total", "Writes dropped by fault injection.", float64(m.Device.LostWrites))
		e.Counter("spf_device_torn_writes_total", "Writes torn by fault injection.", float64(m.Device.TornWrites))
		e.Counter("spf_device_scrubs_total", "Scrub reads issued to the device.", float64(m.Device.Scrubs))

		e.Counter("spf_wal_appends_total", "Log records appended.", float64(m.Log.Appends))
		e.Counter("spf_wal_bytes_appended_total", "Log bytes appended.", float64(m.Log.BytesAppended))
		e.Counter("spf_wal_flushes_total", "Explicit log flushes that did work.", float64(m.Log.Flushes))
		e.Counter("spf_wal_forced_commits_total", "Commit-triggered log forces.", float64(m.Log.ForcedCommits))
		e.Counter("spf_wal_group_commit_batches_total", "Group-commit flush batches.", float64(m.Log.GroupCommitBatches))
		e.Counter("spf_wal_group_commit_waiters_total", "Commits served by group-commit batches.", float64(m.Log.GroupCommitWaiters))
		e.Gauge("spf_wal_live_bytes", "Bytes of chunks currently backing the live log buffer.", float64(m.Log.LiveSegments*wal.ChunkSize))
		e.Counter("spf_wal_recycled_segments_total", "Live log chunks recycled behind the truncation horizon.", float64(m.Log.RecycledSegments))
		e.Gauge("spf_wal_truncated_lsn", "Recycling boundary: records below it left the live log (the archive, if on, serves them).", float64(m.Log.TruncatedLSN))
		e.Counter("spf_wal_archive_reads_total", "Log reads served by the archive fallback.", float64(m.Log.ArchiveReads))

		e.Gauge("spf_archive_runs", "Archived runs currently retained.", float64(m.Archive.Runs))
		e.Gauge("spf_archive_records", "Archived records currently retained.", float64(m.Archive.Records))
		e.Gauge("spf_archive_bytes", "Archived bytes currently retained.", float64(m.Archive.Bytes))
		e.Counter("spf_archive_runs_written_total", "Archive runs written.", float64(m.Archive.RunsWritten))
		e.Counter("spf_archive_records_total", "Records archived.", float64(m.Archive.RecordsArchived))
		e.Counter("spf_archive_bytes_total", "Bytes archived.", float64(m.Archive.BytesArchived))
		e.Counter("spf_archive_records_dropped_total", "Collected log records no recovery reads from the archive (commit, abort, PRI, checkpoint), left out of runs.", float64(m.Archive.RecordsDropped))
		e.Counter("spf_archive_undo_bytes_stripped_total", "Undo bytes cut from committed updates before archiving.", float64(m.Archive.UndoBytesStripped))
		e.Counter("spf_archive_released_runs_total", "Archived runs garbage-collected past the backup horizon.", float64(m.Archive.ReleasedRuns))
		e.Counter("spf_archive_reads_total", "Records served by the archive to readers.", float64(m.Archive.Reads))
		e.Counter("spf_archive_retries_total", "Faulted archive operations retried.", float64(m.Archive.Retries))
		e.Counter("spf_archive_write_faults_total", "Injected archive write faults hit.", float64(m.Archive.WriteFaults))
		e.Counter("spf_archive_read_faults_total", "Injected archive read faults hit.", float64(m.Archive.ReadFaults))
		e.Gauge("spf_archive_archived_lsn", "Exclusive upper bound of durably archived history.", float64(m.Archive.ArchivedLSN))
		e.Gauge("spf_archive_released_lsn", "Exclusive bound of garbage-collected archive history.", float64(m.Archive.ReleasedLSN))
		e.Gauge("spf_archive_paused", "1 while the archive device is unavailable and recycling is suspended.", boolGauge(m.Archive.Paused))

		e.Counter("spf_txn_user_begun_total", "User transactions begun.", float64(m.Txns.UserBegun))
		e.Counter("spf_txn_user_committed_total", "User transactions committed.", float64(m.Txns.UserCommitted))
		e.Counter("spf_txn_user_aborted_total", "User transactions aborted.", float64(m.Txns.UserAborted))
		e.Counter("spf_txn_updates_logged_total", "Update records logged by transactions.", float64(m.Txns.UpdatesLogged))

		e.Counter("spf_recovery_recoveries_total", "Single-page recoveries completed.", float64(m.Recovery.Recoveries))
		e.Counter("spf_recovery_records_applied_total", "Log records applied by single-page recovery.", float64(m.Recovery.RecordsApplied))
		e.Counter("spf_recovery_escalations_total", "Single-page recoveries escalated.", float64(m.Recovery.Escalations))

		e.Counter("spf_maintenance_flush_batches_total", "Background flush batches.", float64(m.Maintenance.FlushBatches))
		e.Counter("spf_maintenance_pages_flushed_total", "Pages flushed by maintenance.", float64(m.Maintenance.PagesFlushed))
		e.Counter("spf_maintenance_pages_scrubbed_total", "Pages scrubbed by the campaign.", float64(m.Maintenance.PagesScrubbed))
		e.Counter("spf_maintenance_latent_found_total", "Latent faults found by scrubbing.", float64(m.Maintenance.LatentFound))
		e.Counter("spf_maintenance_repaired_total", "Latent faults repaired.", float64(m.Maintenance.Repaired))
		e.Counter("spf_maintenance_escalated_total", "Latent faults escalated.", float64(m.Maintenance.Escalated))

		e.Counter("spf_restore_enqueued_total", "Restore tickets created.", float64(m.Restore.Enqueued))
		e.Counter("spf_restore_coalesced_total", "Restore requests coalesced onto tickets.", float64(m.Restore.Coalesced))
		e.Counter("spf_restore_urgent_total", "Single-page recoveries run by the read that found the page bad.", float64(m.Restore.UrgentRequests))
		e.Counter("spf_restore_promotions_total", "Queued repair tickets retired because a read repaired the page first.", float64(m.Restore.Promotions))
		e.Counter("spf_restore_repaired_total", "Restore tickets repaired.", float64(m.Restore.Repaired))
		e.Counter("spf_restore_failed_total", "Restore tickets failed.", float64(m.Restore.Failed))
		e.Gauge("spf_restore_pending", "Restore tickets waiting in the queue.", float64(m.Restore.Pending))
		e.Gauge("spf_restore_in_flight", "Repairs currently executing.", float64(m.Restore.InFlight))

		e.Gauge("spf_restart_redo_marked", "Pages the last restart or media recovery queued for background repair.", float64(m.RestartRedo.Marked))
		e.Counter("spf_restart_redo_fast_total", "Recoveries replayed onto the stale image the failed read had loaded.", float64(m.RestartRedo.FastRedos))
		e.Counter("spf_restart_redo_fallbacks_total", "Sound images recovery turned down for the registered backup.", float64(m.RestartRedo.Fallbacks))
		e.Gauge("spf_restart_redo_pending", "Background repairs still queued or running.", float64(m.RestartRedo.Pending))

		e.Gauge("spf_pri_ranges", "Page recovery index entries (range-compressed).", float64(m.PRI.Ranges))
		e.Gauge("spf_pri_bytes", "Page recovery index footprint in bytes.", float64(m.PRI.Bytes))
		e.Gauge("spf_pri_pages", "Logical pages covered by the page recovery index.", float64(m.PRI.Pages))
		e.Gauge("spf_pages", "Logical pages in the database.", float64(m.Pages))
		e.Gauge("spf_retired_slots", "Device slots retired after failures.", float64(m.RetiredSlots))
		e.Gauge("spf_crashed", "1 while the database is crashed.", boolGauge(m.Crashed))
		e.Gauge("spf_closed", "1 after the database is closed.", boolGauge(m.Closed))

		for _, ix := range m.Indexes {
			e.Gauge("spf_index_info", "Per-index engine kind (labels carry the facts; value is 1).", 1, "index", ix.Name, "kind", ix.Kind)
			switch ix.Kind {
			case "hash":
				e.Counter("spf_index_bucket_splits_total", "Linear-hashing bucket splits, per index.", float64(ix.BucketSplits), "index", ix.Name)
				e.Counter("spf_index_overflow_pages_total", "Overflow pages linked into bucket chains, per index.", float64(ix.OverflowPages), "index", ix.Name)
			default:
				e.Counter("spf_index_splits_total", "Leaf/branch splits, per index.", float64(ix.Splits), "index", ix.Name)
				e.Counter("spf_index_adoptions_total", "Foster-child adoptions, per index.", float64(ix.Adoptions), "index", ix.Name)
				e.Counter("spf_index_root_grows_total", "Root growths, per index.", float64(ix.RootGrows), "index", ix.Name)
				e.Counter("spf_index_optimistic_hits_total", "Latch-free descents completed, per index.", float64(ix.OptimisticHits), "index", ix.Name)
				e.Counter("spf_index_optimistic_fallbacks_total", "Descents that fell back to latched reads, per index.", float64(ix.OptimisticFallbacks), "index", ix.Name)
			}
		}
	})
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// RegisterRuntimeCollector exports the process's Go runtime footprint —
// what the soak harness watches to prove the bounded log lifecycle
// actually bounds memory under sustained load.
func RegisterRuntimeCollector(reg *metrics.Registry) {
	reg.RegisterCollector(func(e *metrics.Emitter) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		e.Gauge("process_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
		e.Gauge("process_heap_sys_bytes", "Heap memory obtained from the OS.", float64(ms.HeapSys))
		e.Gauge("process_goroutines", "Live goroutines.", float64(runtime.NumGoroutine()))
		e.Counter("process_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC))
	})
}
