// Backup policy tuning: §6 of the paper suggests taking a page backup
// "after a number of updates" so single-page recovery stays fast. This
// example sweeps the interval on a hot-page workload and reports the
// recovery-time / backup-space trade-off. The policy is on by default (every
// 64 updates; a negative interval turns it off). The engine takes its
// backups when it writes a page back, so the hot page is written back after
// every commit, and when a repair rebuilds a page from N or more records,
// so the next repair of that page starts from the rebuilt copy. A copy is
// one log record holding the page's image, so the space it costs is log
// (and archive) space; the backup device holds full backups only.
//
//	go run ./examples/backuppolicy
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/iosim"
	"repro/internal/report"
	"repro/spf"
)

func main() {
	const hotUpdates = 417 // no interval divides it: every row replays a remainder
	// -1 turns the policy off.
	intervals := []int{-1, 10, 25, 100, 200}

	t := report.NewTable("backup-every-N-updates policy on a hot page",
		"interval N", "chain replayed at recovery", "sim recovery time (HDD)")
	for _, n := range intervals {
		replayed, simTime := runOne(n, hotUpdates)
		label := fmt.Sprintf("%d", n)
		if n < 0 {
			label = "off"
		}
		t.Row(label, replayed, simTime)
	}
	t.Caption = fmt.Sprintf("%d updates hammered one page before the failure", hotUpdates)
	fmt.Print(t.String())
	fmt.Println("shape: recovery work == updates since last backup (§6), checked;")
	fmt.Println("pick N so 'dozens of I/Os' holds even for the hottest pages.")
}

func runOne(interval, updates int) (int, time.Duration) {
	opts := spf.Options{
		PageSize:            4096,
		BackupEveryNUpdates: interval,
		DataProfile:         iosim.HDD,
		LogProfile:          iosim.HDD,
		BackupProfile:       iosim.HDD,
	}
	db, err := spf.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	ix, err := db.CreateIndex("hot")
	if err != nil {
		log.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 16; i++ {
		if err := ix.Insert(tx, key(i), []byte("cold")); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		log.Fatal(err)
	}
	if err := db.FlushAll(); err != nil {
		log.Fatal(err)
	}
	victim := findVictim(db, ix, key(8))
	if err := db.BackupPage(victim); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < updates; i++ {
		tx := db.Begin()
		if err := ix.Update(tx, key(8), []byte(fmt.Sprintf("hot-%05d", i))); err != nil {
			log.Fatal(err)
		}
		if err := db.Commit(tx); err != nil {
			log.Fatal(err)
		}
		if err := db.FlushAll(); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.EvictPage(victim); err != nil {
		log.Fatal(err)
	}
	if err := db.CorruptPage(victim); err != nil {
		log.Fatal(err)
	}
	rep, err := db.RecoverPageNow(victim)
	if err != nil {
		log.Fatal(err)
	}
	// Confirm correctness after recovery, and that it replayed exactly the
	// updates since the last backup.
	v, err := ix.Get(key(8))
	if err != nil || string(v) != fmt.Sprintf("hot-%05d", updates-1) {
		log.Fatalf("recovered wrong value %q, %v", v, err)
	}
	want := updates
	if interval > 0 {
		want = updates % interval
	}
	if rep.RecordsApplied != want {
		log.Fatalf("interval %d: replayed %d records, want %d", interval, rep.RecordsApplied, want)
	}
	return rep.RecordsApplied, rep.SimulatedIO
}

func key(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }

func findVictim(db *spf.DB, ix *spf.Index, k []byte) spf.PageID {
	var root spf.PageID
	for _, id := range db.Pages() {
		h, err := db.Fetch(id)
		if err != nil {
			continue
		}
		h.RLock()
		hit := h.Page().Type().String() == "btree" && contains(h.Page().Payload(), k)
		h.RUnlock()
		h.Release()
		if hit {
			if id != ix.Root() {
				return id
			}
			root = id
		}
	}
	if root != 0 {
		return root // tiny tree: the root leaf holds everything
	}
	log.Fatal("victim not found")
	return 0
}

func contains(haystack, needle []byte) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if string(haystack[i:i+len(needle)]) == string(needle) {
			return true
		}
	}
	return false
}
