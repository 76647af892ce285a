// Latent sector errors: reproduces the field conditions the paper cites
// (Bairavasundaram et al.): a campaign of latent errors across the written
// part of the device, discovered partly by normal reads and partly by
// background scrubbing, every one repaired by single-page recovery without
// aborting anything. It exits non-zero unless reads and the scrub each
// repaired at least one page and no read returned a wrong answer.
//
//	go run ./examples/latenterrors
package main

import (
	"fmt"
	"log"

	"repro/internal/storage"
	"repro/spf"
)

func main() {
	// A pool of 16 frames, so that reads go to the device and meet the
	// damage.
	db, err := spf.Open(spf.Options{Seed: 42, PoolFrames: 16})
	if err != nil {
		log.Fatal(err)
	}
	items, err := db.CreateIndex("items")
	if err != nil {
		log.Fatal(err)
	}
	tx := db.Begin()
	const n = 200000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("item%08d", i))
		v := []byte(fmt.Sprintf("payload-%d", i))
		if err := items.Insert(tx, k, v); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		log.Fatal(err)
	}
	if err := db.FlushAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database loaded: %d keys across %d pages\n", n, db.PageMapLen())

	// The campaign: ~1% of the written slots develop latent errors with
	// spatial clustering, mixing unreadable sectors and silent corruption —
	// the distribution the SIGMETRICS study reports.
	read := storage.Campaign{Rate: 0.005, ClusterSize: 4,
		Kind: storage.FaultReadError, Sticky: true, Seed: 7}
	silent := storage.Campaign{Rate: 0.005, ClusterSize: 4,
		Kind: storage.FaultSilentCorruption, Sticky: true, Seed: 8}
	hit1 := read.Apply(db.Device())
	hit2 := silent.Apply(db.Device())
	fmt.Printf("campaign: %d slots with latent read errors, %d with silent corruption\n",
		len(hit1), len(hit2))

	// Foreground traffic on the hot quarter of the keys discovers the
	// damage on the pages it reads.
	misreads := 0
	for i := 0; i < n/4; i += 3 {
		k := []byte(fmt.Sprintf("item%08d", i))
		v, err := items.Get(k)
		if err != nil {
			log.Fatalf("read of %s failed despite recovery: %v", k, err)
		}
		if string(v) != fmt.Sprintf("payload-%d", i) {
			misreads++
		}
	}
	byReads := db.Metrics().Recovery.Recoveries
	fmt.Printf("foreground reads: 0 aborted, %d wrong answers, %d pages repaired on access\n",
		misreads, byReads)

	// Background scrubbing mops up the damage on the cold pages.
	scrub, err := db.Scrub()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scrub: %d slots scanned, %d bad, %d repaired, %d escalated\n",
		scrub.Scanned, scrub.BadSlots, scrub.Recovered, scrub.Escalated)

	// Prove the database is fully intact.
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("item%08d", i))
		v, err := items.Get(k)
		if err != nil || string(v) != fmt.Sprintf("payload-%d", i) {
			log.Fatalf("post-repair check failed for %s: %q %v", k, v, err)
		}
	}
	if viols, err := items.Verify(); err != nil || len(viols) > 0 {
		log.Fatalf("verification: %v %v", viols, err)
	}
	final := db.Metrics()
	fmt.Printf("final: %d single-page recoveries, %d retired slots, all %d keys verified intact\n",
		final.Recovery.Recoveries, final.RetiredSlots, n)
	if byReads == 0 || scrub.Recovered == 0 || misreads != 0 {
		log.Fatalf("want pages repaired by reads and by the scrub and no wrong answer: got %d, %d and %d wrong",
			byReads, scrub.Recovered, misreads)
	}
}
