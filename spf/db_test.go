package spf

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
)

func testOptions() Options {
	return Options{
		PageSize:   1024,
		DataSlots:  8192,
		PoolFrames: 64,
	}
}

func openTestDB(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func k(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func v(i int) []byte { return []byte(fmt.Sprintf("val-%06d", i)) }

// loadIndex creates a B-tree index with n committed keys.
func loadIndex(t *testing.T, db *DB, name string, n int) *Index {
	t.Helper()
	return loadIndexKind(t, db, name, KindBTree, n)
}

// loadIndexKind creates an index of the given engine kind with n
// committed keys.
func loadIndexKind(t *testing.T, db *DB, name string, kind IndexKind, n int) *Index {
	t.Helper()
	ix, err := db.CreateIndexKind(name, kind)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < n; i++ {
		if err := ix.Insert(tx, k(i), v(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	return ix
}

func expectValues(t *testing.T, ix *Index, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		got, err := ix.Get(k(i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, v(i)) {
			t.Fatalf("get %d = %q", i, got)
		}
	}
}

func TestBasicCRUDAndScan(t *testing.T) {
	db := openTestDB(t, testOptions())
	ix := loadIndex(t, db, "users", 500)
	expectValues(t, ix, 500)

	tx := db.Begin()
	if err := ix.Update(tx, k(10), []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(tx, k(20)); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	got, _ := ix.Get(k(10))
	if string(got) != "updated" {
		t.Errorf("updated value = %q", got)
	}
	if _, err := ix.Get(k(20)); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("deleted key: %v", err)
	}
	count := 0
	if err := ix.Scan(nil, nil, func(e Entry) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 499 {
		t.Errorf("scan count = %d, want 499", count)
	}
	if viols, err := ix.Verify(); err != nil || len(viols) != 0 {
		t.Errorf("verify: %v %v", viols, err)
	}
}

func TestIndexRegistry(t *testing.T) {
	db := openTestDB(t, testOptions())
	if _, err := db.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("a"); err == nil {
		t.Error("duplicate index created")
	}
	names, err := db.Indexes()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("indexes = %v", names)
	}
	if _, err := db.Index("c"); !errors.Is(err, ErrUnknownIndex) {
		t.Errorf("unknown index: %v", err)
	}
}

func TestSinglePageRecoveryFromSilentCorruption(t *testing.T) {
	db := openTestDB(t, testOptions())
	ix := loadIndex(t, db, "t", 800)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored image of the page holding k(400).
	victim := findLeafOf(t, db, ix, k(400))
	if err := db.EvictPage(victim); err != nil {
		t.Fatal(err)
	}
	if err := db.CorruptPage(victim); err != nil {
		t.Fatal(err)
	}
	// The read detects the corruption and repairs it transparently; the
	// Get just succeeds.
	got, err := ix.Get(k(400))
	if err != nil {
		t.Fatalf("get through recovery: %v", err)
	}
	if !bytes.Equal(got, v(400)) {
		t.Errorf("recovered value = %q", got)
	}
	st := db.Metrics()
	if st.Recovery.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", st.Recovery.Recoveries)
	}
	if st.RetiredSlots != 1 {
		t.Errorf("retired slots = %d, want 1", st.RetiredSlots)
	}
	// Everything else intact; invariants hold.
	expectValues(t, ix, 800)
	if viols, err := ix.Verify(); err != nil || len(viols) != 0 {
		t.Errorf("verify after recovery: %v %v", viols, err)
	}
}

// findLeafOf locates the logical page currently holding key via scan of
// physical slots — test helper using engine internals.
func findLeafOf(t *testing.T, db *DB, ix *Index, key []byte) PageID {
	t.Helper()
	// Walk down using the tree itself: corrupting the leaf that holds
	// the key is easiest done by fetching it through a descent recorded
	// by Stats... simpler: brute force over all pages: find the leaf
	// whose payload contains the key bytes.
	for _, id := range db.pmap.Pages() {
		h, err := db.pool.Fetch(id)
		if err != nil {
			continue
		}
		h.RLock()
		isBTree := h.Page().Type().String() == "btree"
		hasKey := bytes.Contains(h.Page().Payload(), key)
		h.RUnlock()
		h.Release()
		if isBTree && hasKey && id != ix.Root() {
			return id
		}
	}
	t.Fatalf("no page holds key %q", key)
	return 0
}

func TestSinglePageRecoveryFromReadError(t *testing.T) {
	db := openTestDB(t, testOptions())
	ix := loadIndex(t, db, "t", 400)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	victim := findLeafOf(t, db, ix, k(100))
	if err := db.EvictPage(victim); err != nil {
		t.Fatal(err)
	}
	if err := db.InjectPageFault(victim, FaultReadError, true); err != nil {
		t.Fatal(err)
	}
	got, err := ix.Get(k(100))
	if err != nil {
		t.Fatalf("get through recovery: %v", err)
	}
	if !bytes.Equal(got, v(100)) {
		t.Errorf("recovered = %q", got)
	}
}

// TestLostWriteDetectedByPageLSNCrossCheck: a lost write leaves a sound,
// stale image, which only the PageLSN cross-check catches; recovery replays
// what the write lost onto that image and the slot stays in service.
//
// A slot that keeps losing writes (a sticky fault) is therefore detected and
// repaired again on every cold read — always correct, never quarantined:
// retiring a slot after N such repairs belongs with per-repair events
// (ROADMAP direction 2), not here.
func TestLostWriteDetectedByPageLSNCrossCheck(t *testing.T) {
	db := openTestDB(t, testOptions())
	ix := loadIndex(t, db, "t", 300)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	victim := findLeafOf(t, db, ix, k(150))
	slot, _ := db.PhysicalSlot(victim)
	// Arm a lost write, then update the page and force it out: the
	// device acknowledges but keeps the stale image.
	if err := db.InjectPageFault(victim, FaultLostWrite, false); err != nil {
		t.Fatal(err)
	}
	update := func(val string) {
		t.Helper()
		tx := db.Begin()
		if err := ix.Update(tx, k(150), []byte(val)); err != nil {
			t.Fatal(err)
		}
		if err := db.Commit(tx); err != nil {
			t.Fatal(err)
		}
		if err := db.EvictPage(victim); err != nil {
			t.Fatal(err)
		}
	}
	update("new-value")
	// The stale image has a valid checksum; only the PRI cross-check can
	// catch it — and then single-page recovery rebuilds the real state.
	got, err := ix.Get(k(150))
	if err != nil {
		t.Fatalf("get after lost write: %v", err)
	}
	if string(got) != "new-value" {
		t.Errorf("lost write not recovered: %q", got)
	}
	m := db.Metrics()
	if m.Recovery.Recoveries != 1 || m.RestartRedo.FastRedos != 1 {
		t.Errorf("%d recoveries, redo %+v; want one, on the stale image", m.Recovery.Recoveries, m.RestartRedo)
	}
	// The slot returned a true version of its page: it works, it is kept,
	// and the next write-back to it reads back.
	if now, _ := db.PhysicalSlot(victim); now != slot || m.RetiredSlots != 0 {
		t.Errorf("page moved from slot %d to %d, %d slots retired", slot, now, m.RetiredSlots)
	}
	update("newer-value")
	if got, err := ix.Get(k(150)); err != nil || string(got) != "newer-value" {
		t.Errorf("read back from the kept slot: %q, %v", got, err)
	}
	if now, _ := db.PhysicalSlot(victim); now != slot || db.Metrics().Recovery.Recoveries != 1 {
		t.Errorf("slot %d → %d, %d recoveries; want the page read from its slot", slot, now, db.Metrics().Recovery.Recoveries)
	}
}

func TestLostWriteUndetectedWithoutCrossCheck(t *testing.T) {
	// Ablation A2: with the PageLSN check disabled, the stale page is
	// served silently — the paper's nightmare scenario.
	opts := testOptions()
	opts.DisablePageLSNCheck = true
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", 300)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	victim := findLeafOf(t, db, ix, k(150))
	if err := db.InjectPageFault(victim, FaultLostWrite, false); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := ix.Update(tx, k(150), []byte("new-value")); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if err := db.EvictPage(victim); err != nil {
		t.Fatal(err)
	}
	got, err := ix.Get(k(150))
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if string(got) == "new-value" {
		t.Error("stale image not served — test setup wrong?")
	}
}

func TestEscalationWithoutSinglePageRecovery(t *testing.T) {
	// Fig. 1 baseline: a traditional engine treats the bad page as a
	// media failure.
	opts := testOptions()
	opts.DisableSinglePageRecovery = true
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", 300)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	victim := findLeafOf(t, db, ix, k(100))
	if err := db.EvictPage(victim); err != nil {
		t.Fatal(err)
	}
	if err := db.CorruptPage(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Get(k(100)); !errors.Is(err, ErrPageFailed) {
		t.Errorf("want ErrPageFailed escalation, got %v", err)
	}
}

func TestCrashRecoveryCommittedSurvivesLoserRolledBack(t *testing.T) {
	db := openTestDB(t, testOptions())
	ix := loadIndex(t, db, "t", 400)
	// A committed update after the load.
	tx := db.Begin()
	if err := ix.Update(tx, k(7), []byte("committed-update")); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	// A loser transaction, still active at the crash.
	loser := db.Begin()
	for i := 400; i < 450; i++ {
		if err := ix.Insert(loser, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Update(loser, k(8), []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	// Flush some pages so the loser's effects reach the device.
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	db.Crash()

	ndb, rep, err := db.Restart()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if rep.Undo.LosersRolledBack == 0 {
		t.Error("no losers rolled back")
	}
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix2.Get(k(7))
	if err != nil || string(got) != "committed-update" {
		t.Errorf("committed update lost: %q, %v", got, err)
	}
	got, err = ix2.Get(k(8))
	if err != nil || !bytes.Equal(got, v(8)) {
		t.Errorf("loser update not rolled back: %q, %v", got, err)
	}
	for i := 400; i < 450; i++ {
		if _, err := ix2.Get(k(i)); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("loser insert %d visible after restart: %v", i, err)
		}
	}
	expectValues(t, ix2, 7)
	if viols, err := ix2.Verify(); err != nil || len(viols) != 0 {
		t.Errorf("verify after restart: %v %v", viols, err)
	}
}

// TestCrashRecoveryUnflushedCommitsRedone runs both redo paths: on demand,
// and the forward scan a restart takes when its reads have no PageLSN
// check to find a stale page.
func TestCrashRecoveryUnflushedCommitsRedone(t *testing.T) {
	for _, onDemand := range []bool{true, false} {
		opts := testOptions()
		opts.DisablePageLSNCheck = !onDemand
		db := openTestDB(t, opts)
		ix := loadIndex(t, db, "t", 200)
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// Committed but never flushed to the data device: redo must replay.
		tx := db.Begin()
		for i := 200; i < 260; i++ {
			if err := ix.Insert(tx, k(i), v(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Commit(tx); err != nil {
			t.Fatal(err)
		}
		db.Crash()
		ndb, rep, err := db.Restart()
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		switch {
		case rep.OnDemand != onDemand:
			t.Fatalf("OnDemand = %v with the PageLSN check %v", rep.OnDemand, onDemand)
		case onDemand && rep.Prep.PagesMarked == 0:
			t.Error("instant restart marked nothing needs-redo despite unflushed commits")
		case !onDemand && rep.Redo.RecordsApplied == 0:
			t.Error("redo applied nothing despite unflushed commits")
		}
		ix2, err := ndb.Index("t")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 260; i++ {
			got, err := ix2.Get(k(i))
			if err != nil || !bytes.Equal(got, v(i)) {
				t.Fatalf("key %d after restart: %q, %v", i, got, err)
			}
		}
		ndb.Close()
	}
}

func TestRestartIdempotentAfterCleanShutdown(t *testing.T) {
	db := openTestDB(t, testOptions())
	_ = loadIndex(t, db, "t", 100)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Crash() // everything flushed: nothing to recover
	ndb, rep, err := db.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Undo.LosersRolledBack != 0 {
		t.Errorf("losers after clean shutdown: %d", rep.Undo.LosersRolledBack)
	}
	ix, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	expectValues(t, ix, 100)
}

func TestOperationsFailWhileCrashed(t *testing.T) {
	db := openTestDB(t, testOptions())
	ix := loadIndex(t, db, "t", 10)
	db.Crash()
	if _, err := ix.Get(k(1)); !errors.Is(err, ErrCrashed) {
		t.Errorf("get on crashed db: %v", err)
	}
	if _, err := db.CreateIndex("x"); !errors.Is(err, ErrCrashed) {
		t.Errorf("create on crashed db: %v", err)
	}
	if _, err := db.Checkpoint(); !errors.Is(err, ErrCrashed) {
		t.Errorf("checkpoint on crashed db: %v", err)
	}
}

func TestMediaRecoveryFromFullBackup(t *testing.T) {
	db := openTestDB(t, testOptions())
	ix := loadIndex(t, db, "t", 300)
	setID, _, err := db.BackupNow()
	if err != nil {
		t.Fatal(err)
	}
	if setID == 0 {
		t.Fatal("no backup set id")
	}
	// More committed work after the backup — must be replayed from log.
	tx := db.Begin()
	for i := 300; i < 350; i++ {
		if err := ix.Insert(tx, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	db.FailDevice()
	ndb, rep, err := db.RecoverMedia()
	if err != nil {
		t.Fatalf("media recovery: %v", err)
	}
	if rep.Media.PagesRestored == 0 {
		t.Error("no pages restored")
	}
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 350; i++ {
		got, err := ix2.Get(k(i))
		if err != nil || !bytes.Equal(got, v(i)) {
			t.Fatalf("key %d after media recovery: %q, %v", i, got, err)
		}
	}
	if viols, err := ix2.Verify(); err != nil || len(viols) != 0 {
		t.Errorf("verify after media recovery: %v %v", viols, err)
	}
}

func TestFullBackupServesSinglePageRecovery(t *testing.T) {
	db := openTestDB(t, testOptions())
	ix := loadIndex(t, db, "t", 300)
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	// Update some keys after the backup so the per-page chain matters.
	tx := db.Begin()
	for i := 0; i < 300; i += 10 {
		if err := ix.Update(tx, k(i), []byte(fmt.Sprintf("v2-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	victim := findLeafOf(t, db, ix, k(150))
	if err := db.EvictPage(victim); err != nil {
		t.Fatal(err)
	}
	if err := db.CorruptPage(victim); err != nil {
		t.Fatal(err)
	}
	got, err := ix.Get(k(150))
	if err != nil {
		t.Fatalf("get through recovery: %v", err)
	}
	if string(got) != "v2-150" {
		t.Errorf("recovered %q, want post-backup update", got)
	}
}

func TestBackupEveryNUpdatesPolicy(t *testing.T) {
	opts := testOptions()
	opts.BackupEveryNUpdates = 20
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", 50)
	// Hammer one key's page with updates; commits run the policy.
	for round := 0; round < 10; round++ {
		tx := db.Begin()
		for i := 0; i < 10; i++ {
			if err := ix.Update(tx, k(5), []byte(fmt.Sprintf("r%d-%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	// The page must now have an explicit page backup, so single-page
	// recovery applies only the post-backup suffix of the chain.
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	victim := findLeafOf(t, db, ix, k(5))
	if err := db.EvictPage(victim); err != nil {
		t.Fatal(err)
	}
	if err := db.CorruptPage(victim); err != nil {
		t.Fatal(err)
	}
	rep, err := db.RecoverPageNow(victim)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if rep.BackupKind.String() != "page-backup" {
		t.Errorf("backup kind = %v, want page-backup", rep.BackupKind)
	}
	if rep.RecordsApplied > 40 {
		t.Errorf("applied %d records; policy should bound the chain near 20", rep.RecordsApplied)
	}
	got, err := ix.Get(k(5))
	if err != nil || string(got) != "r9-9" {
		t.Errorf("final value = %q, %v", got, err)
	}
}

func TestScrubFindsAndRepairsLatentErrors(t *testing.T) {
	db := openTestDB(t, testOptions())
	ix := loadIndex(t, db, "t", 600)
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Latent damage on three pages.
	victims := []PageID{
		findLeafOf(t, db, ix, k(50)),
		findLeafOf(t, db, ix, k(300)),
		findLeafOf(t, db, ix, k(550)),
	}
	uniq := map[PageID]bool{}
	for _, id := range victims {
		if uniq[id] {
			continue
		}
		uniq[id] = true
		if err := db.EvictPage(id); err != nil {
			t.Fatal(err)
		}
		if err := db.CorruptPage(id); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := db.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BadSlots != len(uniq) {
		t.Errorf("scrub found %d bad slots, want %d", rep.BadSlots, len(uniq))
	}
	if rep.Recovered != len(uniq) {
		t.Errorf("scrub recovered %d, want %d", rep.Recovered, len(uniq))
	}
	expectValues(t, ix, 600)
}

func TestAbortAfterPolicyBackups(t *testing.T) {
	// Rollback across pages whose policy backups hold the transaction's own
	// uncommitted updates must still work, and so must recovery afterwards.
	opts := testOptions()
	opts.BackupEveryNUpdates = 5
	db := openTestDB(t, opts)
	ix := loadIndex(t, db, "t", 50)
	tx := db.Begin()
	for i := 0; i < 50; i++ {
		if err := ix.Update(tx, k(i), []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	// The write-back takes the backups before the abort.
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	leaf := findLeafOf(t, db, ix, k(25))
	if e, err := db.pri.Get(leaf); err != nil || e.Backup.Kind != core.BackupPage {
		t.Fatalf("leaf %d backed by %+v (%v) after the flush, want a page backup", leaf, e.Backup, err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	expectValues(t, ix, 50)
	corruptAndVerify(t, db, ix, leaf, 50)
}

func TestStatsAndSimulatedIO(t *testing.T) {
	db := openTestDB(t, testOptions())
	_ = loadIndex(t, db, "t", 100)
	st := db.Metrics()
	if st.Pages == 0 || st.Log.Appends == 0 || st.Txns.UserCommitted != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.PRI.Pages == 0 || st.PRI.Bytes == 0 {
		t.Errorf("PRI stats empty: %+v", st)
	}
	d, l, b := db.SimulatedIO()
	_ = d
	_ = l
	_ = b
	db.ResetSimulatedIO()
}
