package bench

// Drivers for the restore scheduler and instant restart: E26 restart
// first-read latency, E27 parallel redo drain.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/page"
	"repro/internal/restore"
	"repro/spf"
)

// repairCost is the simulated per-page repair cost of the scheduler-level
// benchmark (E27): roughly one image read plus a short chain replay
// on fast storage. It is paid with a sleep so the workers yield the CPU
// exactly like a repair blocked on I/O — the simulated-I/O clock only
// accumulates time and never sleeps, so wall-clock queueing and worker
// scaling must be modeled at the scheduler level.
const repairCost = 300 * time.Microsecond

// firstReadLatency measures how long the first post-crash read waits:
// crash a database with a large dirty working set, restart it, and read
// one key. With full=false the instant-restart path runs — preparation is
// O(active pages), Restart returns before redo completes, and the read
// pays only its own page's chain replay. With full=true the synchronous
// forward-scan redo runs to completion before any read can start: the
// restart of a database whose reads cannot detect a stale page
// (Options.DisablePageLSNCheck), the pre-instant baseline. One iteration
// is one full crash-and-restart cycle. It returns the mean Crash→(Restart
// returns and the first read completes) latency — the time until the
// first transaction observes its acked data again.
func firstReadLatency(b *testing.B, full bool) float64 {
	const (
		keys   = 3000
		rounds = 4
	)
	var total int64
	for iter := 0; iter < b.N; iter++ {
		b.StopTimer()
		opts := spf.Options{
			PageSize:            1024,
			DataSlots:           1 << 15,
			PoolFrames:          2048,
			Restore:             spf.RestoreOptions{Workers: 1},
			DisablePageLSNCheck: full,
		}
		db, err := spf.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		ix, err := db.CreateIndex("t")
		if err != nil {
			b.Fatal(err)
		}
		tx := db.Begin()
		for i := 0; i < keys; i++ {
			if err := ix.Insert(tx, bkey(i), bval(i)); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Commit(tx); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		// Post-checkpoint rounds dirty every page again without a single
		// write-back (the pool holds the working set), so the crash
		// leaves the whole tree in the dirty page table and redo has a
		// real per-page chain to replay.
		for r := 1; r <= rounds; r++ {
			tx = db.Begin()
			for i := 0; i < keys; i++ {
				if err := ix.Update(tx, bkey(i), bval(i+r*keys)); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Commit(tx); err != nil {
				b.Fatal(err)
			}
		}
		db.Crash()

		b.StartTimer()
		start := time.Now()
		ndb, rep, err := db.Restart()
		if err != nil {
			b.Fatal(err)
		}
		ix2, err := ndb.Index("t")
		if err != nil {
			b.Fatal(err)
		}
		got, err := ix2.Get(bkey(0))
		lat := time.Since(start).Nanoseconds()
		b.StopTimer()
		if err != nil || !bytes.Equal(got, bval(rounds*keys)) {
			b.Fatalf("first read after restart: %q, %v", got, err)
		}
		total += lat
		if !full && rep.Prep.PagesMarked == 0 {
			b.Fatal("instant restart marked no pages needs-redo")
		}
		ndb.DrainRestore()
		if err := ndb.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	return float64(total) / float64(b.N)
}

// parallelRedoDrain measures the bulk redo drain after an instant
// restart at the scheduler level: a backlog of per-page redo tickets —
// cost-ordered by replay span, exactly how Restart enqueues its
// needs-redo marks — is drained by the configured worker count, each
// repair paying repairCost. Redo is partitioned by page, so workers never
// contend on a ticket. It returns the mean time to drain the backlog.
func parallelRedoDrain(b *testing.B, workers int) float64 {
	const backlog = 256
	var total int64
	for iter := 0; iter < b.N; iter++ {
		b.StopTimer()
		sched := restore.New(restore.Config{Workers: workers}, restore.Deps{
			Repair: func(page.ID) error {
				time.Sleep(repairCost)
				return nil
			},
		})
		sched.Start()
		b.StartTimer()
		start := time.Now()
		for i := 1; i <= backlog; i++ {
			// Replay spans vary page to page; the scheduler pops the
			// short ones first.
			sched.Enqueue(page.ID(i), int64(i%17+1))
		}
		sched.Drain()
		total += time.Since(start).Nanoseconds()
		b.StopTimer()
		sched.Stop()
		b.StartTimer()
	}
	b.StopTimer()
	return float64(total) / float64(b.N)
}

func bkey(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
func bval(i int) []byte { return []byte(fmt.Sprintf("value-%08d", i)) }
