// Package repro is the root of a full reproduction of Graefe and Kuno,
// "Definition, Detection, and Recovery of Single-Page Failures, a Fourth
// Class of Database Failures" (PVLDB 5(7): 646-655, 2012).
//
// The public engine API lives in repro/spf; the paper's primary
// contribution (the page recovery index and single-page recovery) lives in
// internal/core; every substrate (page format, fault-injecting device,
// write-ahead log, buffer pool, transactions, Foster B-tree, linear-hash
// index, ARIES restart and media recovery, prioritized repair scheduling,
// backup management, mirroring baseline) is implemented from scratch in
// internal/. Two storage engines — the Foster B-tree and a page-based
// linear-hashing table (internal/hashindex) — sit behind one Engine seam
// in spf, sharing the pool, WAL, and every recovery path; see the spf
// package doc for choosing between them, and internal/enginebench for
// the side-by-side comparison harness (E34/E35). The
// experiment harness reproducing every figure and quantitative claim of
// the paper lives in internal/experiments, driven by bench_test.go at this
// root and by cmd/spfbench.
//
// ARCHITECTURE.md at the repository root is the layer-by-layer map —
// which package owns which invariant, and the paper section each
// subsystem implements. Start there.
//
// # Performance architecture
//
// Because the paper puts failure detection on the hot read path ("each
// page read ... immediately verified", §4.2), the buffer pool is built to
// scale with cores rather than serialize on one mutex:
//
//   - internal/buffer partitions frames across a power-of-two number of
//     shards (default max(8, GOMAXPROCS)), each with its own lock-free
//     frame index (sync.Map) and clock second-chance eviction ring;
//   - pin counts and clock reference bits are atomics, and each frame
//     embeds its Handle, so fetching a resident page takes no locks and
//     allocates nothing (see BenchmarkE17ParallelFetchHit);
//   - eviction claims a victim by compare-and-swapping its pin count from
//     zero to a negative sentinel, which cannot race with pinners;
//   - page images move through pooled scratch buffers and
//     storage.Device.ReadInto, so flushes and validated reads are
//     allocation-free (a miss pays only the decoded page, see
//     BenchmarkE18ParallelFetchMissRecover);
//   - internal/pagemap stripes its logical→physical table by page ID so
//     fetch-path lookups do not contend with write-target allocation.
//
// The write/commit side scales the same way:
//
//   - internal/wal appends with a reserve-then-fill protocol: one atomic
//     add reserves the record's LSN range in a chunked segment buffer
//     whose chunks never move while referenced (the log lifecycle below
//     recycles whole chunks once their history is archived, so the
//     buffer is bounded, not append-forever), the record is encoded
//     outside any lock, and a bounded CAS (with a parked-range handoff
//     rather than an unbounded spin) publishes the contiguous ready
//     prefix in LSN order (see BenchmarkE19ParallelAppend);
//   - commits coalesce: with spf.Options.GroupCommitWindow set, every
//     ForceForCommit parks on a flush group served by one flusher
//     goroutine, folding concurrent commits into a single sequential
//     flush (BenchmarkE20GroupCommitThroughput reports the commits/flush
//     coalescing factor); window zero keeps the deterministic
//     force-per-commit accounting of §5.1.5;
//   - flush cost is O(1) in record count (the target boundary comes from
//     the record's own validated length header); the restart scan uses
//     zero-copy decode (the reused Scan record, valid inside the log's
//     reentrant read gate), while the copying wal.Read serves callers
//     that retain records — WalkPageChain among them, since its chain is
//     applied after the walk;
//   - wal.Crash quiesces in-flight appends and bumps a crash epoch;
//     commit forces and transactional appends are epoch-checked, so a
//     commit racing a crash reports wal.ErrCommitLost instead of claiming
//     durability, and zombie transactions cannot write into the
//     post-crash log (their reserved space is neutralized to inert
//     records);
//   - storage.Device reads take only the shared side of an RWMutex with
//     atomic statistics and a sync.Map fault table, so fault-free
//     validated reads never serialize on an exclusive device lock.
//
// Single-page recovery semantics (detect → Recover hook → Relocate →
// RetireSlot, Fig. 8 and §5.2.3) are unchanged; they now run per shard.
//
// # B-tree concurrency
//
// The Foster B-tree has no tree-global lock: every operation crabs
// root-to-leaf with per-page latch coupling, so the concurrency unit is a
// page, not an index.
//
//   - Descents are hand-over-hand: the child is pinned, latched, and
//     verified against the fences its parent predicts BEFORE the parent
//     latch drops, so no descent can observe a half-applied structural
//     change. Readers take shared latches all the way down; writers take
//     shared latches on branches and an exclusive latch only at the leaf
//     level (the root is latched exclusive just until it is known to be a
//     branch — a monotone hint, since root growth never reverses).
//   - The two-latch invariant: no operation ever holds more than two page
//     latches at once — a parent/child or foster-parent/foster-child pair
//     (a split's freshly allocated, still-unreachable child is the second
//     member of its pair). The btree package enforces it with a
//     per-operation latch-depth counter that tests assert against
//     (btree.MaxLatchDepth).
//   - Structural changes are local, which is precisely what the Foster
//     design buys: a foster split or root growth mutates one latched page
//     (the new node is invisible until its incoming pointer lands in the
//     same critical section); an adoption applies its two halves under an
//     exclusive parent+child pair, taken opportunistically with try-latches
//     AFTER the triggering descent's leaf work and revalidated from
//     scratch, so descents never escalate latches mid-crab.
//   - The §4.2 checks survive concurrency because fence expectations are
//     only ever compared while the node that produced them is still
//     latched: a split changes neither a node's low nor its chain-high
//     fence, and adoption — the one op that rewrites them — holds exactly
//     the latch pair a crabbing descent would compare. Detection of a
//     corrupt child still fires mid-descent (the child is fetched through
//     the validating pool read while the parent latch is held, so a bad
//     stored image routes through single-page recovery transparently; a
//     fence mismatch between two individually plausible pages surfaces as
//     ErrDetected inside the engine, and spf has the implicated pair
//     rebuilt and retries) while descents of other subtrees proceed.
//   - Scans traverse foster chains with the same hand-over-hand protocol
//     and re-descend between chains. Nodes are never decoded: both
//     engines read and write one packed record-page layout in place —
//     see "Page layout" in ARCHITECTURE.md for the byte diagram, the
//     per-engine extensions and the table of who checks what.
//
// BenchmarkE23ParallelTreeOps compares the latch-coupled tree against a
// tree-global-mutex shim (the seed's serialization) under a mixed
// Get/Insert/Update/Delete workload: with reads roaming a working set
// larger than the pool, every buffer-miss stall under the global mutex
// serializes all workers, while latch-coupled descents overlap them.
//
// # Optimistic descent
//
// On top of latch coupling, resident reads elide branch latches entirely
// with optimistic latch coupling (on by default, btree.Tree.SetOptimistic
// to disable):
//
//   - every buffer frame carries a version counter that each exclusive
//     latch acquisition bumps to odd and each release bumps back to even
//     (buffer.Handle.Lock/Unlock) — even means "stable snapshot", odd
//     means "writer active"; shared latches never bump it;
//   - the first descent through a branch node decodes its routing
//     skeleton — separators, child pointers, fence keys — into an
//     immutable deep copy cached on the frame, stamped with the stable
//     version it was built from (buffer.Handle.StoreSkeleton). The stamp
//     IS the invalidation: no mutation path knows skeletons exist, an
//     exclusive latch anywhere on the page makes every older stamp
//     unmatchable;
//   - an optimistic descent reads a branch frame's version, routes
//     through the cached skeleton with no latch at all, and re-validates
//     the version before acting on the result — the version-validation
//     rule: never act on skeleton data without a post-read version
//     re-check. Leaves are still latched for real (shared for readers,
//     exclusive for writers), and the parent's version is re-validated
//     AFTER the leaf latch lands, so the §4.2 fence verification at the
//     leaf is exact;
//   - ANY anomaly — an odd version, a version that moved, a contended
//     skeleton build, a foster pointer on a branch, a fence mismatch —
//     silently falls back to the latched crab, which re-verifies every
//     fence authoritatively. The optimistic path never reports
//     corruption itself, so detection semantics are unchanged, and a
//     stale skeleton can never route past a fence check undetected.
//
// The resident read hit path performs zero heap allocations (GetTo
// appends into a caller-owned buffer) and completes in well under a
// microsecond. BenchmarkE28ResidentReadThroughput measures it against
// the forced-latched crab (zipfian and uniform, -cpu 1,8);
// BenchmarkE29MixedFallback runs the E23 mixed workload optimistic-on vs
// -off to prove the fallback costs no more than the pure latched path.
// spfbench -blockprofile attributes remaining latch contention per
// descent level via the noinline latchBranch/latchLeaf wrappers.
//
// # Background maintenance
//
// internal/maintenance turns the recovery primitives into a system that
// keeps itself healthy under load. Enabled via spf.Options.Maintenance, a
// background service owned by spf.DB runs two campaigns:
//
//   - asynchronous write-back: flusher goroutines drain dirty pages in
//     batches, triggered by a dirty watermark (the pool's mark-dirty hook
//     prods the service once buffer.Pool.DirtyCount crosses it) and by age
//     (a periodic tick bounds how long a page stays dirty). The foreground
//     path stops paying synchronous write+log latency: evictions mostly
//     find clean frames, checkpoints flush an already-drained dirty page
//     table through the same batched path (buffer.Pool.FlushPages), and
//     re-dirtied hot pages coalesce into one device write per drain. Each
//     batch logs its page-recovery-index updates with one grouped
//     reserve-fill append (wal.Manager.AppendBatch — one reservation and
//     one publication for the whole batch) instead of one append per page;
//     deferring only the log records is safe because PRI updates need no
//     force (§5.2.4) and a crash that wipes them leaves exactly the
//     "page written, PRI record lost" state restart redo repairs (Fig. 12).
//     BenchmarkE21AsyncWriteBack compares the two disciplines (writes/update
//     is the write-amplification metric; async must be ≥2× sync);
//   - a continuous scrub campaign: an incremental, rate-limited cursor
//     (storage.Device.ScrubRange, spf.Options.Maintenance.ScrubPagesPerSecond)
//     re-reads and verifies mapped slots so latent single-page failures
//     are detected early — the paper cites scrubbing as the discoverer of
//     most latent sector errors (§1) — and every failure found is handed
//     to the repair scheduler at background priority (see "Restore
//     scheduling" below) while foreground traffic continues. The
//     campaign adapts to foreground pressure: while the pool's dirty
//     count sits above the flushers' high watermark the effective scrub
//     rate halves (alternate ticks sit out), restoring the moment
//     pressure clears. BenchmarkE22ScrubCampaignOverhead measures what
//     the campaign costs foreground fetches; spf.DB.MaintenanceStats
//     reports campaign progress (pages scrubbed, sweeps, effective rate,
//     latent failures found/repaired/escalated).
//
// Crash-safety: spf.DB.Crash and Close quiesce the service before touching
// the log or pool — every worker goroutine is joined, so no background
// write can land after the log truncates its volatile tail, and every
// acknowledged commit remains durable with async write-back enabled (the
// -race fault-injection stress in spf/maintenance_test.go proves both
// properties, plus online detection+repair of every injected latent
// error).
//
// # Restore scheduling
//
// With detection continuous (the scrub campaign, concurrent descents over
// fault-injected trees) and media recovery registering a whole device of
// pages at once, repair ORDERING became the bottleneck — the gap Sauer,
// Graefe and Härder's "Instant restore after a media failure" fills with
// prioritized, on-demand restore ordering. internal/restore applies that
// shape to every single-page repair; spf.DB owns one scheduler
// (spf.Options.Restore, on by default, quiesced by Crash/Close/FailDevice
// exactly like maintenance: queued tickets fail, the in-flight repair
// finishes, every worker joins before the log truncates).
//
// Priority classes and promotion: scrub findings and bulk media restore
// enqueue at Background priority; a foreground fetch fault enqueues at
// Urgent priority and, if the page is already queued, PROMOTES the
// existing ticket ahead of every background entry — one ticket per page,
// always. Waiters park on a per-page repair future, so N concurrent
// faulters of one page coalesce into exactly one chain replay
// (buffer.Hooks.RepairPage; the scheduler's own workers re-read through
// buffer.Pool.FetchRepair, which recovers inline — their reads must not
// re-enter the queue they are draining). A repair that finds its page
// pinned by readers is requeued with exponential backoff, never dropped.
// BenchmarkE24OnDemandRestoreLatency asserts the ordering pays: under a
// saturated background queue, urgent-promotion p99 repair latency must be
// ≥2x better than the same scheduler run as a FIFO queue.
//
// The per-page log-chain index (internal/wal) makes each repair seek
// instead of scan: every append of a chain record (update, CLR, format)
// updates pageID -> {chain-head LSN, format-record LSN, chain length},
// and wal.Crash rolls the index back to the truncation boundary before
// the volatile tail vanishes, so entries never dangle above surviving
// history. Media recovery (recovery.RecoverMedia) is built on it: instead
// of restoring every image and replaying the whole log — O(device)+O(log)
// before the first read — it prepares page-map bindings and PRI entries
// in O(pages) (chain heads from the index, format-record backups for
// pages born after the backup set) and spf.DB.RecoverMedia enqueues every
// page at Background priority. Reads are served DURING the rebuild: a
// fetch of an unrestored page fails validation, promotes that page's
// ticket, and waits only for its own chain replay — the instant-restore
// shape. spf.DB.DrainRestore is the bulk-completion barrier;
// BenchmarkE25MediaRecoveryAvailability asserts reads complete while the
// background restore still has pending pages, with first-read latency far
// below the full drain. examples/instantrestore demonstrates it end to
// end.
//
// # Instant restart
//
// System-failure restart takes the same on-demand shape as media
// recovery. When the restore scheduler and the PageLSN cross-check are
// enabled, spf.DB.Restart no longer replays the log forward before
// opening for business: after analysis, recovery.PrepareRedo walks the
// dirty page table and, for each entry, raises the page's PRI LastLSN to
// its chain head (from the wal chain index) and marks it needs-redo —
// O(active pages), no data-page I/O. Restart queues the whole backlog at
// Background priority, cost-ordered by chain length (short chains drain
// first), runs undo, and returns. The first fetch of a marked page fails
// the PageLSN cross-check exactly like a page that lost a write, and the
// repair replays only that page's missing chain tail on top of its
// current disk image — the image is a free backup as of its own PageLSN
// (§5.2.1), checked record by record with the §5.1.4 sequence test. If
// the image itself is damaged (torn, corrupt, lost), the fast path fails
// and the repair falls back to full single-page recovery from the page's
// registered backup: a nested single-page failure handled inside system
// recovery by the ordinary machinery. Undo's fetches promote the pages a
// rollback touches, preserving redo-before-undo per page; a second crash
// mid-drain loses nothing because the end-of-restart checkpoint
// snapshots the raised PRI expectations. The forward-scan redo survives
// behind spf.RestoreOptions.Disabled (the synchronous baseline
// BenchmarkE26RestartFirstReadLatency measures against; its ≥5x
// criterion is the instant-restart claim, and
// BenchmarkE27ParallelRedoDrain asserts the backlog drain scales with
// workers). examples/crashrecovery demonstrates the shape end to end.
//
// The claim "no acked commit is lost under any crash schedule" is
// enforced by internal/chaos, a deterministic crash-point harness: named
// points (wal.publish, wal.truncate, buffer.writeback, restore.complete,
// restart.prep, recovery.checkpoint, wal.archive.seal, wal.archive.write,
// wal.recycle) thread the engine's riskiest windows
// as bare chaos.At calls — one atomic load when disarmed — and tests arm
// a point with the
// 1-based hit count at which its action fires, so a seeded workload
// replays the identical crash window every run. The torture loop in
// spf/torture_test.go drives crash -> restart -> verify across a seed
// matrix (CI runs it under -race), injecting persistent page faults
// mid-crash and mid-restart so single-page recovery runs inside system
// recovery, and asserts every acked commit survives, losers vanish, the
// tree verifies clean, and shutdown leaks no goroutines.
//
// # Log lifecycle
//
// The log is bounded, not append-forever. With spf.Options.Lifecycle
// enabled, a background archiver (internal/archive) drains flushed
// segments into runs sorted and partitioned by page — each run carries a
// per-page span index and an LSN permutation — so a chain replay over
// archived history is a sequential span scan instead of a seek per
// record (BenchmarkE32 asserts archived replay is no slower than the
// live seek path at equal depth; BenchmarkE33 shows media-restore prep
// over sorted runs is measurably faster). Once history is both
// checkpoint-covered and durably archived, live chunks recycle into a
// free pool and the chain index is pruned to archived-run references;
// reads below the truncation boundary fall back to the archive through
// a bounded-retry reader, and a newer full backup lets the archive
// release runs nothing can reach (clamped by the oldest active
// transaction and the oldest log-backed backup reference). The ordering
// is crash-safe — the archive cursor advances only on a run's atomic
// commit and recycling only follows archiving, so a crash between
// archive-write and recycle just re-archives idempotently (the
// wal.archive.seal / wal.archive.write / wal.recycle crash points run in
// the torture matrix). Archive device faults degrade gracefully: bounded
// retry with backoff, then the lifecycle pauses (the live log grows, the
// spf_archive_paused gauge and a log line say so) until the device
// recovers — unarchived history is never truncated. cmd/spfload -soak
// is the executable proof of "bounded forever": sustained mixed load
// sampling the live-segment gauge and the process heap, exiting nonzero
// if either grows past its bound.
//
// # Serving layer and unified metrics
//
// The engine serves real traffic through internal/server: a
// length-prefixed binary KV protocol (GET/PUT/DEL/SCAN/STATS/PING over a
// named index) with a goroutine-per-connection accept loop, a bounded
// worker pool, per-request deadlines, and graceful drain — cmd/spfserver
// is the runnable front end, cmd/spfload the load harness (thousands of
// concurrent clients, zipfian/uniform mixes, and an end-of-run
// verification that no acked write was dropped: a PUT is acked only
// after its commit proved durable). The resident GET is allocation-free
// socket to socket — frames, index lookup, and the value all move
// through per-connection reused buffers into spf.Index.GetTo.
//
// Observability flows from one source: spf.DB.Metrics() gathers every
// subsystem's counters into a single unified snapshot (the historical
// accessors Stats, RestoreStats, MaintenanceStats, RestartRedoStats, and
// Index.Counters all delegate to it), and internal/metrics — a
// dependency-free Prometheus-text-format registry with allocation-free
// atomic instruments — renders it identically through the HTTP /metrics
// endpoint and the wire protocol's STATS op. Engine errors cross the
// wire as status codes mapped with errors.Is on the spf sentinels
// (ErrNotFound, ErrCrashed, ErrClosed, ErrCommitLost), never by matching
// error text. BenchmarkE30ServerThroughput tracks the socket-to-socket
// read path; BenchmarkE31ServeDuringRestoreDrain proves the
// instant-restore availability story end to end — verified reads served
// over a real socket while the media-restore backlog drains.
//
// CI runs a benchmark-regression gate on every PR: `spfbench -benchjson`
// regenerates the tracked set (E19-E35) and `spfbench -benchcompare`
// fails the build if any entry regresses more than 3x against the
// committed BENCH_wal.json / BENCH_maintenance.json / BENCH_btree.json /
// BENCH_restore.json / BENCH_restart.json / BENCH_server.json /
// BENCH_lifecycle.json / BENCH_engine.json baselines or drops out of the
// tracked set. A fuzz job runs the native fuzzers (server frame reader,
// request parser, structured page layouts) on a short budget. A
// chaos job runs the seeded torture matrix under the race detector, the
// examples job smoke-runs spfserver under a short spfload ramp, and a
// soak job runs spfserver with the log lifecycle on under sustained
// spfload -soak traffic, failing if the live-segment count or the heap
// floor escapes its bound. A docs job keeps ARCHITECTURE.md linked
// (README + this file) and its Go snippets parseable and gofmt-clean.
package repro
