// Quickstart: open a database, create an index, run transactions, corrupt
// a page behind the engine's back, and watch a read repair it in place.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/spf"
)

func main() {
	db, err := spf.Open(spf.Options{})
	if err != nil {
		log.Fatal(err)
	}

	users, err := db.CreateIndex("users")
	if err != nil {
		log.Fatal(err)
	}

	// A user transaction: inserts commit atomically.
	tx := db.Begin()
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("user%04d", i)
		v := fmt.Sprintf("{\"name\":\"u%d\",\"credits\":%d}", i, i*10)
		if err := users.Insert(tx, []byte(k), []byte(v)); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("inserted 1000 users in one transaction")

	// Aborted transactions leave no trace.
	tx2 := db.Begin()
	if err := users.Update(tx2, []byte("user0007"), []byte("corrupted-on-purpose")); err != nil {
		log.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		log.Fatal(err)
	}
	v, err := users.Get([]byte("user0007"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after abort, user0007 = %s\n", v)

	// Now the paper's scenario: a page on "disk" silently rots.
	if err := db.FlushAll(); err != nil {
		log.Fatal(err)
	}
	// Find the page holding user0500 and corrupt its stored image.
	var victim spf.PageID
	for id := spf.PageID(1); id < 200; id++ {
		h, err := db.Fetch(id)
		if err != nil {
			continue
		}
		h.RLock()
		hit := h.Page().Type().String() == "btree" &&
			containsBytes(h.Page().Payload(), []byte("user0500")) &&
			id != users.Root()
		h.RUnlock()
		h.Release()
		if hit {
			victim = id
			break
		}
	}
	if victim == 0 {
		log.Fatal("victim page not found")
	}
	if err := db.EvictPage(victim); err != nil {
		log.Fatal(err)
	}
	if err := db.CorruptPage(victim); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("silently corrupted the stored image of page %d\n", victim)
	before := db.Metrics().Recovery.Recoveries

	// The next read detects the failure, walks the per-page log chain
	// from the page's format record, rebuilds the page, retires the bad
	// slot, and serves the correct answer — no transaction aborted.
	v2, err := users.Get([]byte("user0500"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read through single-page recovery: user0500 = %s\n", v2)
	if want := `{"name":"u500","credits":5000}`; string(v2) != want {
		log.Fatalf("read %s after the corruption, committed %s", v2, want)
	}

	st := db.Metrics()
	if st.Recovery.Recoveries <= before {
		log.Fatalf("the read was served without a recovery (%d before, %d after)",
			before, st.Recovery.Recoveries)
	}
	fmt.Printf("recoveries=%d escalations=%d retired-slots=%d pri-ranges=%d (%d bytes for %d pages)\n",
		st.Recovery.Recoveries, st.Recovery.Escalations, st.RetiredSlots,
		st.PRI.Ranges, st.PRI.Bytes, st.Pages)

	if viols, err := users.Verify(); err != nil || len(viols) > 0 {
		log.Fatalf("verification failed: %v %v", viols, err)
	}
	fmt.Println("full structural verification: clean")
}

func containsBytes(haystack, needle []byte) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if string(haystack[i:i+len(needle)]) == string(needle) {
			return true
		}
	}
	return false
}
