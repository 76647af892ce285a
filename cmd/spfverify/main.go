// Command spfverify demonstrates the offline, DBCC-style verification the
// paper contrasts with continuous self-testing (§2, §4.1): it builds a
// database, optionally injects damage, and runs (a) the full offline scan
// and (b) the same checks as side effects of ordinary descents, reporting
// what each catches and what it costs.
//
//	spfverify [-keys N] [-corrupt N]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/report"
	"repro/internal/storage"
	"repro/spf"
)

func main() {
	keys := flag.Int("keys", 20000, "keys to load")
	corrupt := flag.Int("corrupt", 5, "pages to silently corrupt")
	flag.Parse()

	db, err := spf.Open(spf.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	ix, err := db.CreateIndex("data")
	if err != nil {
		log.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < *keys; i++ {
		if err := ix.Insert(tx, []byte(fmt.Sprintf("k%08d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		log.Fatal(err)
	}
	if err := db.FlushAll(); err != nil {
		log.Fatal(err)
	}
	if *corrupt > 0 {
		storage.Campaign{
			Rate: float64(*corrupt) / float64(db.PageMapLen()),
			Kind: storage.FaultSilentCorruption, Sticky: true, Seed: 3,
		}.Apply(db.Device())
	}

	t := report.NewTable("offline verification vs continuous self-testing",
		"approach", "wall time", "failures found", "database usable meanwhile")

	// Offline, DBCC-style: full structural scan. (Reads repair damage as
	// a side effect of fetching through the validating pool — in a
	// traditional engine this scan would only *report*.)
	start := time.Now()
	viols, err := ix.Verify()
	if err != nil {
		log.Fatal(err)
	}
	// The scrub's repairs count as recoveries too: take the scan's first,
	// so each failure is counted once.
	readRepairs := int(db.Metrics().Recovery.Recoveries)
	scrub, err := db.Scrub()
	if err != nil {
		log.Fatal(err)
	}
	offline := time.Since(start)
	found := len(viols) + readRepairs + scrub.BadSlots
	t.Row("offline full scan (DBCC-style) + scrub", offline, found, "no (read-only mode)")

	// Continuous: ordinary query traffic detects the rest on the fly.
	start = time.Now()
	detectedBefore := db.Metrics().Recovery.Recoveries
	for i := 0; i < *keys; i += 97 {
		if _, err := ix.Get([]byte(fmt.Sprintf("k%08d", i))); err != nil {
			log.Fatalf("query failed: %v", err)
		}
	}
	online := time.Since(start)
	t.Row("continuous (side effect of queries)", online,
		db.Metrics().Recovery.Recoveries-detectedBefore, "yes")
	t.Caption = "every failure either scheme found was repaired by single-page recovery"
	fmt.Print(t.String())

	final, err := ix.Verify()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-repair full verification: %d violations\n", len(final))
}
