// Crash recovery walkthrough: commits survive, losers roll back — and
// with instant restart the database answers its first query before bulk
// redo finishes. Restart prepares in O(active pages): for every page dirty
// at the crash the page recovery index is told the log-chain head the page
// must reach, and the page is queued for background repair; a foreground
// read that finds such a page stale recovers just that page itself, on the
// stale image, and pays only the missing tail of its chain. The output
// counts reads served while the redo backlog is still draining and fails if
// none were.
//
// The one background worker is held after its first repair until the first
// read has been served (a chaos point, inert unless armed): whether a read
// beats the drain then no longer depends on how the scheduler happens to
// interleave the worker and the reader.
//
//	go run ./examples/crashrecovery
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/internal/chaos"
	"repro/spf"
)

func main() {
	db, err := spf.Open(spf.Options{
		PageSize:   1024,
		DataSlots:  1 << 15,
		PoolFrames: 2048,
		// One background worker keeps the redo queue visibly busy so the
		// on-demand reads have something to overtake.
		Restore: spf.RestoreOptions{Workers: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	acct, err := db.CreateIndex("accounts")
	if err != nil {
		log.Fatal(err)
	}

	// Committed, checkpointed state: n accounts.
	const n = 4000
	tx := db.Begin()
	for i := 0; i < n; i++ {
		if err := acct.Insert(tx, key(i), val(i, 0)); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		log.Fatal(err)
	}

	// Post-checkpoint update rounds dirty every page again without a
	// write-back: at the crash the whole tree sits in the dirty page
	// table, so restart has a real redo backlog.
	const rounds = 2
	for r := 1; r <= rounds; r++ {
		tx := db.Begin()
		for i := 0; i < n; i++ {
			if err := acct.Update(tx, key(i), val(i, r)); err != nil {
				log.Fatal(err)
			}
		}
		if err := db.Commit(tx); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("%d accounts committed across %d pages, all dirty since the checkpoint\n",
		n, db.PageMapLen())

	// A committed transfer (must survive) ...
	transfer := db.Begin()
	if err := acct.Update(transfer, key(1), []byte("balance=50")); err != nil {
		log.Fatal(err)
	}
	if err := acct.Update(transfer, key(2), []byte("balance=150")); err != nil {
		log.Fatal(err)
	}
	if err := db.Commit(transfer); err != nil {
		log.Fatal(err)
	}
	// ... and an in-flight batch (must vanish). Forcing the log — not the
	// pages — makes the loser's records survive the crash so undo has
	// real work, while the data pages stay dirty for redo.
	loser := db.Begin()
	for i := 0; i < 100; i++ {
		if err := acct.Update(loser, key(i+200), []byte("balance=0")); err != nil {
			log.Fatal(err)
		}
	}
	db.LogManager().FlushAll()
	fmt.Println("committed transfer + 100-update loser in flight; pulling the plug")

	db.Crash()
	firstRead := make(chan struct{})
	chaos.Arm("restore.complete", 1, func(chaos.Hit) { <-firstRead })
	defer chaos.Reset()
	prepStart := time.Now()
	ndb, rep, err := db.Restart()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Restart returned in %v: %d records analyzed, %d pages queued for redo, %d losers rolled back\n",
		time.Since(prepStart).Round(time.Microsecond), rep.Analysis.RecordsScanned,
		rep.Prep.PagesMarked, rep.Undo.LosersRolledBack)
	if !rep.OnDemand {
		log.Fatal("restart did not take the on-demand path")
	}

	acct2, err := ndb.Index("accounts")
	if err != nil {
		log.Fatal(err)
	}

	// First reads run ahead of the background drain: each one redoes the
	// pages it touches and waits only for those pages' chain replays.
	served := 0
	drainStart := time.Now()
	for i := 0; i < n; i += 199 {
		readStart := time.Now()
		got, err := acct2.Get(key(i))
		if err != nil {
			log.Fatal(err)
		}
		want := val(i, rounds)
		if i == 1 {
			want = []byte("balance=50")
		}
		if !bytes.Equal(got, want) {
			log.Fatalf("key %d after restart: got %q, want %q", i, got, want)
		}
		pending := ndb.Metrics().Restore.Pending
		if pending > 0 {
			served++
		}
		if i == 0 {
			close(firstRead) // let the worker drain the rest
		}
		if i%796 == 0 {
			fmt.Printf("  read key %4d in %8v — %3d pages still pending redo\n",
				i, time.Since(readStart).Round(time.Microsecond), pending)
		}
	}

	ndb.DrainRestore()
	fmt.Printf("bulk redo drained in %v; %d reads had completed before it did\n",
		time.Since(drainStart).Round(time.Millisecond), served)
	rs := ndb.Metrics().RestartRedo
	fmt.Printf("redo: %d pages queued, %d recovered on their stale disk image, %d images turned down for the page's backup\n",
		rs.Marked, rs.FastRedos, rs.Fallbacks)

	// Durability + atomicity, same checks as ever.
	check(acct2, key(1), "balance=50")          // committed transfer survived
	check(acct2, key(2), "balance=150")         // committed transfer survived
	check(acct2, key(250), string(val(250, 2))) // loser rolled back
	viols, err := acct2.Verify()
	if err != nil || len(viols) != 0 {
		log.Fatalf("verify: %v %v", viols, err)
	}
	fmt.Println("durability + atomicity verified after crash")
	if served == 0 {
		log.Fatal("no read completed before bulk redo drained — instant restart shape not demonstrated")
	}
	if err := ndb.Close(); err != nil {
		log.Fatal(err)
	}
}

func key(i int) []byte { return []byte(fmt.Sprintf("acct%08d", i)) }

func val(i, round int) []byte {
	return []byte(fmt.Sprintf("balance-%d-round-%d", i*3, round))
}

func check(ix *spf.Index, k []byte, want string) {
	v, err := ix.Get(k)
	if err != nil || string(v) != want {
		log.Fatalf("check %s: got %q (%v), want %q", k, v, err, want)
	}
}
