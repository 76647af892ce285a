package spf

import (
	"sort"

	"repro/internal/archive"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/maintenance"
	"repro/internal/restore"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Metrics is the unified engine snapshot: every subsystem's counters
// gathered atomically enough for monitoring (each subsystem snapshot is
// internally consistent; the struct as a whole is a point-in-time gather,
// not a transaction). It is the single source behind the /metrics
// Prometheus exporter and the wire protocol's STATS op, and the one way to
// read engine state: Index.Metrics is one index's slice of it.
type Metrics struct {
	// Pool, Device, Log, Txns, Recovery are the foreground engine layers.
	Pool     buffer.Stats
	Device   storage.Stats
	Log      wal.Stats
	Txns     txn.Stats
	Recovery core.Stats
	// Maintenance and Restore are the background services (zero when
	// disabled); RestartRedo says how recoveries found their replay base
	// and how much of the last recovery's backlog remains; Archive is the log
	// archive's store plus the archiver's pause gauge (zero unless
	// Options.Lifecycle.Enabled).
	Maintenance maintenance.Stats
	Restore     restore.Stats
	RestartRedo RestartRedoStats
	Archive     archive.Stats
	// PRI sizes the page recovery index; Pages counts logical pages;
	// RetiredSlots counts device slots retired after failures.
	PRI          PRIMetrics
	Pages        int
	RetiredSlots int
	// Crashed and Closed report the DB lifecycle state (see ErrCrashed,
	// ErrClosed).
	Crashed bool
	Closed  bool
	// Indexes holds one entry per registered index, sorted by name.
	Indexes []IndexMetrics
}

// PRIMetrics sizes the page recovery index.
type PRIMetrics struct {
	// Ranges is the number of (possibly range-compressed) entries.
	Ranges int
	// Bytes is the approximate in-memory footprint.
	Bytes int
	// Pages is the number of logical pages covered.
	Pages int
}

// IndexMetrics is the per-index slice of the snapshot: the engine kind,
// cumulative structural churn, and (for B-trees) the optimistic-descent
// outcome counters.
type IndexMetrics struct {
	Name string
	Kind string // "btree" or "hash"
	Root PageID
	// Splits, Adoptions, RootGrows count B-tree structural changes.
	Splits    int64
	Adoptions int64
	RootGrows int64
	// OptimisticHits and OptimisticFallbacks split B-tree point-read
	// descents by whether they completed latch-free on the branch levels.
	OptimisticHits      int64
	OptimisticFallbacks int64
	// BucketSplits and OverflowPages count hash-engine structural changes.
	BucketSplits  int64
	OverflowPages int64
}

func indexMetrics(name string, eng Engine) IndexMetrics {
	c := eng.Counters()
	return IndexMetrics{
		Name: name, Kind: eng.Kind().String(), Root: eng.Root(),
		Splits: c.Splits, Adoptions: c.Adoptions, RootGrows: c.RootGrows,
		OptimisticHits: c.OptimisticHits, OptimisticFallbacks: c.OptimisticFallbacks,
		BucketSplits: c.BucketSplits, OverflowPages: c.OverflowPages,
	}
}

// Metrics returns the unified engine snapshot. It never fails: a crashed
// or closed DB still reports its counters (with Crashed/Closed set), so
// monitoring keeps working through failures — which is exactly when it
// matters.
func (db *DB) Metrics() Metrics {
	m := Metrics{
		Pool:     db.pool.Stats(),
		Device:   db.dev.Stats(),
		Log:      db.log.Stats(),
		Txns:     db.txns.Stats(),
		Recovery: db.rec.Stats(),
		PRI: PRIMetrics{
			Ranges: db.pri.RangeCount(),
			Bytes:  db.pri.SizeBytes(),
			Pages:  db.pri.PageCount(),
		},
		Pages:        db.pmap.Len(),
		RetiredSlots: db.dev.RetiredCount(),
	}
	if db.maint != nil {
		m.Maintenance = db.maint.Stats()
	}
	m.Restore = db.sched.Stats()
	m.RestartRedo = RestartRedoStats{
		Marked:    int64(db.backlog),
		FastRedos: m.Recovery.OwnImage,
		Fallbacks: m.Recovery.OwnImageRejected,
		Pending:   m.Restore.Pending + m.Restore.InFlight,
	}
	m.Archive = db.archiver.Stats()
	db.mu.Lock()
	m.Crashed = db.crashed
	m.Closed = db.closed
	for name, eng := range db.engines {
		if eng == nil { // reserved by an in-flight CreateIndex
			continue
		}
		m.Indexes = append(m.Indexes, indexMetrics(name, eng))
	}
	db.mu.Unlock()
	sort.Slice(m.Indexes, func(i, j int) bool { return m.Indexes[i].Name < m.Indexes[j].Name })
	return m
}

// Metrics returns this index's slice of the DB snapshot.
func (ix *Index) Metrics() IndexMetrics {
	return indexMetrics(ix.eng.Name(), ix.eng)
}
