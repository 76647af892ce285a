// Command spfverify demonstrates the offline, DBCC-style verification the
// paper contrasts with continuous self-testing (§2, §4.1): it builds a
// database and runs (a) the full offline scan and (b) the same checks as
// side effects of ordinary descents, each over N freshly damaged pages of
// its own, reporting what each catches and what it costs. It exits 1 when
// either finds nothing while pages were damaged.
//
//	spfverify [-keys N] [-corrupt N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
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

	// Continuous: ordinary query traffic meets damage of its own — the scan
	// repaired the first — and detects it on the fly. The damaged pages are
	// out of the pool, so the queries read them from the device; every key
	// is queried, so every index page is reached. The catalog page, the
	// first allocated, is no index page.
	if err := db.FlushAll(); err != nil {
		log.Fatal(err)
	}
	pages := db.Pages()[1:]
	for i := 0; i < *corrupt && len(pages) > 0; i++ {
		id := pages[i*len(pages) / *corrupt]
		if err := db.EvictPage(id); err != nil {
			log.Fatal(err)
		}
		if err := db.CorruptPage(id); err != nil {
			log.Fatal(err)
		}
	}
	start = time.Now()
	detectedBefore := db.Metrics().Recovery.Recoveries
	for i := 0; i < *keys; i++ {
		if _, err := ix.Get([]byte(fmt.Sprintf("k%08d", i))); err != nil {
			log.Fatalf("query failed: %v", err)
		}
	}
	online := time.Since(start)
	continuous := db.Metrics().Recovery.Recoveries - detectedBefore
	t.Row("continuous (side effect of queries)", online, continuous, "yes")
	t.Caption = "every failure either scheme found was repaired by single-page recovery"
	fmt.Print(t.String())

	final, err := ix.Verify()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-repair full verification: %d violations\n", len(final))
	if *corrupt > 0 && (found == 0 || continuous == 0) {
		fmt.Println("FAIL: damage was injected, and a scheme found none of it")
		os.Exit(1)
	}
}
