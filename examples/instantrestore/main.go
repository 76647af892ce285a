// Instant restore: media recovery that serves reads while it runs.
//
// The paper's media recovery (§5.1.3) is a bulk offline process — restore
// every page from the full backup, replay the whole log, and only then
// answer the first query. This demo shows the engine's instant-restore
// shape (after Sauer, Graefe & Härder): RecoverMedia prepares the page
// map and page recovery index in O(pages) and returns immediately; every
// page is queued for background repair, and a foreground read of a page
// that is not back yet restores that one page ITSELF, waiting only for its
// own chain replay, and retires the page's queue entry. The output shows
// reads completing while the bulk restore still has most of the device
// pending.
//
//	go run ./examples/instantrestore
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/spf"
)

func main() {
	db, err := spf.Open(spf.Options{
		PageSize:   1024,
		DataSlots:  1 << 15,
		PoolFrames: 2048,
		// One background worker keeps the restore queue visibly busy so
		// the on-demand reads have something to overtake.
		Restore: spf.RestoreOptions{Workers: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	accounts, err := db.CreateIndex("accounts")
	if err != nil {
		log.Fatal(err)
	}
	const n = 5000
	tx := db.Begin()
	for i := 0; i < n; i++ {
		if err := accounts.Insert(tx, key(i), val(i, 0)); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		log.Fatal(err)
	}

	// A full backup, then more committed work: the post-backup updates
	// exist only in the log and must be replayed per page at restore.
	if _, _, err := db.BackupNow(); err != nil {
		log.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		tx := db.Begin()
		for i := 0; i < n; i++ {
			if err := accounts.Update(tx, key(i), val(i, round)); err != nil {
				log.Fatal(err)
			}
		}
		if err := db.Commit(tx); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("loaded %d keys across %d pages, full backup + 3 post-backup update rounds\n",
		n, db.PageMapLen())

	// The whole device fails.
	db.FailDevice()
	fmt.Println("device failed — every page gone")

	// Instant restore: RecoverMedia returns a usable database while the
	// bulk of the device is still queued for background repair.
	prepStart := time.Now()
	ndb, rep, err := db.RecoverMedia()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RecoverMedia returned in %v: %d pages registered (%d born after the backup)\n",
		time.Since(prepStart).Round(time.Microsecond),
		rep.Media.PagesRestored, rep.Media.LateBornPages)

	accounts, err = ndb.Index("accounts")
	if err != nil {
		log.Fatal(err)
	}

	// Reads are served on demand, ahead of the background bulk restore.
	served := 0
	restoreStart := time.Now()
	for i := 0; i < n; i += 251 {
		readStart := time.Now()
		got, err := accounts.Get(key(i))
		if err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(got, val(i, 3)) {
			log.Fatalf("key %d: got %q, want round-3 value", i, got)
		}
		pending := ndb.Metrics().Restore.Pending
		if pending > 0 {
			served++
		}
		if i%1004 == 0 {
			fmt.Printf("  read key %4d in %8v — %3d pages still pending restore\n",
				i, time.Since(readStart).Round(time.Microsecond), pending)
		}
	}

	ndb.DrainRestore()
	fmt.Printf("bulk restore finished in %v; %d reads had completed before it did\n",
		time.Since(restoreStart).Round(time.Millisecond), served)

	st := ndb.Metrics().Restore
	fmt.Printf("scheduler: %d pages restored, %d of them by the read that needed them first\n",
		st.Repaired, st.Promotions)

	// Everything is back and verifiably intact.
	for i := 0; i < n; i++ {
		got, err := accounts.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i, 3)) {
			log.Fatalf("key %d after restore: %q, %v", i, got, err)
		}
	}
	viols, err := accounts.Verify()
	if err != nil || len(viols) != 0 {
		log.Fatalf("verify: %v %v", viols, err)
	}
	fmt.Printf("all %d keys verified after instant restore\n", n)
	if served == 0 {
		log.Fatal("no read completed before the bulk restore drained — instant restore shape not demonstrated")
	}
	if err := ndb.Close(); err != nil {
		log.Fatal(err)
	}
}

func key(i int) []byte { return []byte(fmt.Sprintf("acct%08d", i)) }

func val(i, round int) []byte {
	return []byte(fmt.Sprintf("balance-%d-round-%d", i*7, round))
}
