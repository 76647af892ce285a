package main

// metricDef names one metric. The names, units and directions here are
// the ones BENCHMARK.json lists (the smoke test holds the two equal);
// Layer and Moves say what BENCHMARK.json's schema has no field for:
// which module the metric observes and which end-to-end metric, on which
// workload, it is expected to move.
type metricDef struct {
	Name, Unit, Better string
	// Bound is the share by which the metric may worsen before it counts
	// as a regression. For endToEnd it is BENCHMARK.json's bound. The
	// user-visible metrics that exist on one workload only carry theirs
	// here, and -check-repeat enforces them on untraced runs (see README,
	// "What is gated").
	Bound float64
	Layer string
	Moves string
}

// endToEnd is what every workload reports on every run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer is what a traced run reports: first the user-visible metrics
// that are not in endToEnd — the read latencies, which every workload has
// but which cannot hold a bound on this host (README, "What is gated"), and
// those that exist on one workload only — then the layers' own, module by
// module.
var perLayer = []metricDef{
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Layer: "end-to-end", Moves: "every workload"},
	{Name: "read_p99_us", Unit: "us", Better: "lower", Bound: 0.25, Layer: "end-to-end", Moves: "every workload"},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Layer: "end-to-end", Moves: "wire-mixed-cold"},
	{Name: "write_p99_us", Unit: "us", Better: "lower", Bound: 0.25, Layer: "end-to-end", Moves: "wire-mixed-cold"},
	{Name: "scan_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Layer: "end-to-end", Moves: "wire-mixed-cold"},
	{Name: "log_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.03, Layer: "end-to-end", Moves: "wire-mixed-cold"},
	{Name: "repair_read_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Layer: "end-to-end", Moves: "repair-online"},
	{Name: "repair_read_p99_us", Unit: "us", Better: "lower", Bound: 0.15, Layer: "end-to-end", Moves: "repair-online"},
	{Name: "restart_first_read_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "end-to-end", Moves: "recovery-cycle"},
	{Name: "restart_drain_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "end-to-end", Moves: "recovery-cycle"},
	{Name: "restore_first_read_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "end-to-end", Moves: "recovery-cycle"},
	{Name: "restore_drain_ms", Unit: "ms", Better: "lower", Bound: 0.15, Layer: "end-to-end", Moves: "recovery-cycle"},
	// A closed loop hides a stall from every percentile: a checkpoint
	// that blocks for 5 ms delays the request or two in flight, not 1% of
	// them. The slowest operation of a slice is where it shows.
	{Name: "read_max_us", Unit: "us", Better: "lower", Layer: "end-to-end", Moves: "wire-mixed-cold (stall behind a checkpoint or write-back)"},
	{Name: "write_max_us", Unit: "us", Better: "lower", Layer: "end-to-end", Moves: "wire-mixed-cold (stall behind a checkpoint or write-back)"},

	{Name: "server.socket_us", Unit: "us", Better: "lower", Layer: "server", Moves: "read_p50_us, ops_per_s on wire-get-resident and equally wire-get-hash"},
	{Name: "server.handle_us", Unit: "us", Better: "lower", Layer: "server", Moves: "read_p50_us, ops_per_s on wire-get-resident and equally wire-get-hash"},
	{Name: "server.allocs_per_op", Unit: "count", Better: "lower", Layer: "server", Moves: "read_p99_us on wire-get-resident"},
	{Name: "server.timeouts", Unit: "count", Better: "lower", Layer: "server", Moves: "failed operations, any wire workload"},
	{Name: "server.bad_frames", Unit: "count", Better: "lower", Layer: "server", Moves: "failed operations, any wire workload"},

	{Name: "btree.get_us", Unit: "us", Better: "lower", Layer: "btree", Moves: "read_p50_us on wire-get-resident (small share)"},
	{Name: "btree.update_us", Unit: "us", Better: "lower", Layer: "btree", Moves: "write_p50_us on wire-mixed-cold"},
	{Name: "btree.scan_us_per_entry", Unit: "us", Better: "lower", Layer: "btree", Moves: "scan_p50_us on wire-mixed-cold"},
	{Name: "btree.allocs_per_get", Unit: "count", Better: "lower", Layer: "btree", Moves: "read_p50_us on wire-get-resident"},
	{Name: "btree.allocs_per_update", Unit: "count", Better: "lower", Layer: "btree", Moves: "write_p50_us on wire-mixed-cold"},
	{Name: "btree.optimistic_hit_ratio", Unit: "ratio", Better: "higher", Layer: "btree", Moves: "read_p50_us on wire-get-resident"},
	{Name: "btree.splits", Unit: "count", Better: "lower", Layer: "btree", Moves: "write_p99_us on wire-mixed-cold"},
	{Name: "btree.adoptions", Unit: "count", Better: "lower", Layer: "btree", Moves: "write_p99_us on wire-mixed-cold"},

	{Name: "hashindex.get_us", Unit: "us", Better: "lower", Layer: "hashindex", Moves: "read_p50_us, ops_per_s on wire-get-hash; none on wire-get-resident"},
	{Name: "hashindex.allocs_per_get", Unit: "count", Better: "lower", Layer: "hashindex", Moves: "read_p50_us on wire-get-hash"},
	{Name: "hashindex.bucket_splits", Unit: "count", Better: "lower", Layer: "hashindex", Moves: "none on the read-only wire-get-hash"},
	{Name: "hashindex.overflow_pages", Unit: "count", Better: "lower", Layer: "hashindex", Moves: "none on the read-only wire-get-hash"},

	{Name: "buffer.hit_ratio", Unit: "ratio", Better: "higher", Layer: "buffer", Moves: "read_p50_us, read_p99_us on wire-mixed-cold; 1 on the resident workloads"},
	{Name: "buffer.fetches_per_op", Unit: "count", Better: "lower", Layer: "buffer", Moves: "read_p50_us on wire-mixed-cold"},
	{Name: "buffer.evictions_per_op", Unit: "count", Better: "lower", Layer: "buffer", Moves: "read_p99_us on wire-mixed-cold"},
	{Name: "buffer.fetch_hit_ns", Unit: "ns", Better: "lower", Layer: "buffer", Moves: "read_p50_us on the resident workloads"},
	{Name: "buffer.fetch_miss_us", Unit: "us", Better: "lower", Layer: "buffer", Moves: "read_p50_us on wire-mixed-cold"},
	{Name: "buffer.validation_failures", Unit: "count", Better: "lower", Layer: "buffer", Moves: "repair_read_* on repair-online (one per injected fault)"},
	{Name: "buffer.escalations", Unit: "count", Better: "lower", Layer: "buffer", Moves: "failed operations, any workload"},

	{Name: "storage.reads_per_get", Unit: "count", Better: "lower", Layer: "storage", Moves: "read_p50_us on wire-mixed-cold; 0 on the resident workloads"},
	{Name: "storage.writes_per_put", Unit: "count", Better: "lower", Layer: "storage", Moves: "write_p99_us, read_p99_us on wire-mixed-cold (write-back competes for the CPU)"},
	{Name: "storage.read_us", Unit: "us", Better: "lower", Layer: "storage", Moves: "read_p50_us on wire-mixed-cold; restore_drain_ms on recovery-cycle"},
	{Name: "storage.retired_slots", Unit: "count", Better: "lower", Layer: "storage", Moves: "repair_read_p99_us on repair-online (sticky read errors retire their slot)"},

	{Name: "page.verify_us", Unit: "us", Better: "lower", Layer: "page", Moves: "read_p50_us on wire-mixed-cold (every miss); repair_read_p50_us on repair-online"},
	{Name: "page.decode_us", Unit: "us", Better: "lower", Layer: "page", Moves: "read_p50_us on wire-mixed-cold (every miss); repair_read_p50_us on repair-online"},

	{Name: "pagemap.lookup_ns", Unit: "ns", Better: "lower", Layer: "pagemap", Moves: "none expected above noise; recorded so a regression is attributable"},

	{Name: "txn.commit_us", Unit: "us", Better: "lower", Layer: "txn", Moves: "write_p50_us on wire-mixed-cold (the group-commit wait is the largest stage of a PUT)"},
	{Name: "txn.updates_per_commit", Unit: "count", Better: "lower", Layer: "txn", Moves: "write_p50_us on wire-mixed-cold"},
	{Name: "txn.aborts", Unit: "count", Better: "lower", Layer: "txn", Moves: "failed operations on wire-mixed-cold"},

	{Name: "wal.bytes_per_put", Unit: "B", Better: "lower", Layer: "wal", Moves: "log_bytes_per_user_byte, write_p50_us on wire-mixed-cold; 0 on wire-get-*"},
	{Name: "wal.records_per_put", Unit: "count", Better: "lower", Layer: "wal", Moves: "log_bytes_per_user_byte on wire-mixed-cold"},
	{Name: "wal.forces_per_commit", Unit: "ratio", Better: "lower", Layer: "wal", Moves: "write_p50_us on wire-mixed-cold"},
	{Name: "wal.group_waiters_per_batch", Unit: "ratio", Better: "higher", Layer: "wal", Moves: "ops_per_s on wire-mixed-cold"},
	{Name: "wal.append_ns", Unit: "ns", Better: "lower", Layer: "wal", Moves: "write_p50_us on wire-mixed-cold"},
	{Name: "wal.force_us", Unit: "us", Better: "lower", Layer: "wal", Moves: "write_p50_us on wire-mixed-cold"},
	{Name: "wal.live_segments", Unit: "count", Better: "lower", Layer: "wal", Moves: "heap_mb on wire-mixed-cold"},
	{Name: "wal.recycled_segments", Unit: "count", Better: "higher", Layer: "wal", Moves: "heap_mb on wire-mixed-cold"},
	{Name: "wal.archive_reads_per_repair", Unit: "count", Better: "lower", Layer: "wal", Moves: "repair_read_p50_us on repair-online"},

	{Name: "core.recover_us", Unit: "us", Better: "lower", Layer: "core", Moves: "repair_read_p50_us on repair-online; restart_first_read_ms on recovery-cycle"},
	{Name: "core.records_per_repair", Unit: "count", Better: "lower", Layer: "core", Moves: "core.recover_us, hence repair_read_p50_us on repair-online"},
	{Name: "core.log_reads_per_repair", Unit: "count", Better: "lower", Layer: "core", Moves: "repair_read_p50_us on repair-online"},
	{Name: "core.escalations", Unit: "count", Better: "lower", Layer: "core", Moves: "failed operations, any workload"},
	{Name: "core.pri_bytes_per_page", Unit: "B", Better: "lower", Layer: "core", Moves: "heap_mb on every workload"},
	{Name: "core.pri_ranges", Unit: "count", Better: "lower", Layer: "core", Moves: "heap_mb on every workload"},

	{Name: "restore.queue_us", Unit: "us", Better: "lower", Layer: "restore", Moves: "repair_read_p50_us, repair_read_p99_us on repair-online"},
	{Name: "restore.coalesced_ratio", Unit: "ratio", Better: "higher", Layer: "restore", Moves: "read_p99_us on recovery-cycle"},
	{Name: "restore.promotions", Unit: "count", Better: "higher", Layer: "restore", Moves: "read_p99_us on recovery-cycle"},
	{Name: "restore.requeues", Unit: "count", Better: "lower", Layer: "restore", Moves: "restart_drain_ms, restore_drain_ms on recovery-cycle"},
	{Name: "restore.read_retries", Unit: "count", Better: "lower", Layer: "restore", Moves: "repair_read_p99_us on repair-online"},
	{Name: "restore.failed", Unit: "count", Better: "lower", Layer: "restore", Moves: "failed operations, any workload"},
	{Name: "restore.drain_pages_per_s", Unit: "1/s", Better: "higher", Layer: "restore", Moves: "restart_drain_ms, restore_drain_ms on recovery-cycle"},

	{Name: "backup.backup_ms", Unit: "ms", Better: "lower", Layer: "backup", Moves: "none through a median over slices (one backup per run, in one slice); repair chain length, hence repair_read_p50_us on repair-online"},
	{Name: "backup.pages_written", Unit: "count", Better: "lower", Layer: "backup", Moves: "backup.backup_ms"},
	{Name: "backup.pages_skipped", Unit: "count", Better: "higher", Layer: "backup", Moves: "backup.backup_ms"},

	{Name: "recovery.restart_ms", Unit: "ms", Better: "lower", Layer: "recovery", Moves: "restart_first_read_ms on recovery-cycle"},
	{Name: "recovery.pages_marked", Unit: "count", Better: "lower", Layer: "recovery", Moves: "restart_drain_ms on recovery-cycle"},
	{Name: "recovery.fast_redo_ratio", Unit: "ratio", Better: "higher", Layer: "recovery", Moves: "restart_drain_ms on recovery-cycle"},
	{Name: "recovery.media_prep_ms", Unit: "ms", Better: "lower", Layer: "recovery", Moves: "restore_first_read_ms on recovery-cycle"},
	{Name: "recovery.checkpoint_ms", Unit: "ms", Better: "lower", Layer: "recovery", Moves: "write_max_us, read_max_us on wire-mixed-cold (one checkpoint per slice)"},

	{Name: "archive.bytes_per_log_byte", Unit: "ratio", Better: "lower", Layer: "archive", Moves: "heap_mb on wire-mixed-cold"},
	{Name: "archive.runs_written", Unit: "count", Better: "lower", Layer: "archive", Moves: "heap_mb on wire-mixed-cold"},
	{Name: "archive.archive_now_ms", Unit: "ms", Better: "lower", Layer: "archive", Moves: "none end to end (runs between rounds of repair-online)"},
	{Name: "archive.reads_per_repair", Unit: "count", Better: "lower", Layer: "archive", Moves: "repair_read_p50_us on repair-online"},
	{Name: "archive.retries", Unit: "count", Better: "lower", Layer: "archive", Moves: "repair_read_p99_us on repair-online"},

	{Name: "maintenance.pages_per_flush_batch", Unit: "count", Better: "higher", Layer: "maintenance", Moves: "write_p99_us, read_p99_us on wire-mixed-cold"},
	{Name: "maintenance.pages_flushed_per_put", Unit: "count", Better: "lower", Layer: "maintenance", Moves: "write_p99_us, read_p99_us on wire-mixed-cold"},
	{Name: "maintenance.flush_errors", Unit: "count", Better: "lower", Layer: "maintenance", Moves: "failed operations on wire-mixed-cold"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Layer: "trace", Moves: "how far the traced budget may be off the untraced mean"},
}
