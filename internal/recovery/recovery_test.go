package recovery

import (
	"testing"

	"repro/internal/backup"
	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/pagemap"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// rig is a minimal engine for recovery unit tests over raw pages.
type rig struct {
	dev  *storage.Device
	pmap *pagemap.Map
	log  *wal.Manager
	pool *buffer.Pool
	txns *txn.Manager
	pri  *core.PRI
}

func newRig(t testing.TB) *rig {
	t.Helper()
	r := &rig{
		dev:  storage.NewDevice(storage.Config{PageSize: 512, Slots: 1024, Profile: iosim.Instant}),
		pmap: pagemap.New(1024),
		log:  wal.NewManager(iosim.Instant),
		pri:  core.NewPRI(),
	}
	r.txns = txn.NewManager(r.log)
	r.pool = buffer.NewPool(buffer.Config{
		Capacity: 128, Device: r.dev, Map: r.pmap, Log: r.log,
		Hooks: buffer.Hooks{CompleteWrite: r.completeWrite},
	})
	return r
}

func (r *rig) completeWrite(info buffer.WriteInfo) []*wal.Record {
	if _, err := r.pri.SetLastLSN(info.Page, info.PageLSN); err != nil {
		r.pri.Set(info.Page, core.Entry{LastLSN: info.PageLSN})
	}
	return []*wal.Record{{
		Type: wal.TypePRIUpdate, PageID: info.Page,
		Payload: core.EncodeWriteComplete(core.WriteCompletePayload{
			PageLSN: info.PageLSN, Dest: info.Dest,
		}),
	}}
}

// newRawPage formats a raw page under a committed transaction.
func (r *rig) newRawPage(t testing.TB) page.ID {
	t.Helper()
	tx := r.txns.Begin()
	id := r.pmap.AllocateLogical()
	h, err := r.pool.Create(id, page.TypeRaw)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := tx.Log(&wal.Record{
		Type: wal.TypeFormat, PageID: id,
		Payload: backup.FormatPayload(page.TypeRaw, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Page().SetLSN(lsn)
	h.MarkDirty(lsn)
	h.Release()
	r.pri.Set(id, core.Entry{
		Backup:  core.BackupRef{Kind: core.BackupLog, Loc: uint64(lsn), AsOf: lsn},
		LastLSN: lsn,
	})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return id
}

// update applies a committed raw-set to the page.
func (r *rig) update(t testing.TB, id page.ID, payload string) {
	t.Helper()
	tx := r.txns.Begin()
	h, err := r.pool.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	h.Lock()
	op := btree.EncodeRawSet([]byte(payload), append([]byte(nil), h.Page().Payload()...))
	lsn, err := tx.Log(&wal.Record{
		Type: wal.TypeUpdate, PageID: id, PagePrevLSN: h.Page().LSN(), Payload: op,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := (btree.Applier{}).ApplyRedo(&wal.Record{Payload: op}, h.Page()); err != nil {
		t.Fatal(err)
	}
	h.Page().SetLSN(lsn)
	h.MarkDirty(lsn)
	h.Unlock()
	h.Release()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// crash seals the rig's log and hands what survived to its next
// incarnation, as a restart does.
func (r *rig) crash() {
	r.log.Crash()
	r.log = wal.TakeOver(r.log)
}

func (r *rig) checkpoint(t testing.TB) {
	t.Helper()
	if _, err := Checkpoint(CheckpointDeps{
		Log: r.log, Pool: r.pool, Txns: r.txns, PRI: r.pri, Map: r.pmap,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeEmptyLog(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	res, err := Analyze(log, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losers) != 0 || len(res.DPT) != 0 {
		t.Errorf("empty log produced %+v", res)
	}
}

func TestAnalyzeFindsLosersAndDPT(t *testing.T) {
	r := newRig(t)
	id := r.newRawPage(t)
	r.update(t, id, "committed")
	// An in-flight transaction at crash time.
	loser := r.txns.Begin()
	h, _ := r.pool.Fetch(id)
	h.Lock()
	op := btree.EncodeRawSet([]byte("dirty"), append([]byte(nil), h.Page().Payload()...))
	lsn, err := loser.Log(&wal.Record{Type: wal.TypeUpdate, PageID: id, PagePrevLSN: h.Page().LSN(), Payload: op})
	if err != nil {
		t.Fatal(err)
	}
	if err := (btree.Applier{}).ApplyRedo(&wal.Record{Payload: op}, h.Page()); err != nil {
		t.Fatal(err)
	}
	h.Page().SetLSN(lsn)
	h.MarkDirty(lsn)
	h.Unlock()
	h.Release()
	r.log.FlushAll()
	r.crash()

	res, err := Analyze(r.log, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Losers[loser.ID()]; !ok {
		t.Error("loser not found")
	}
	if _, ok := res.DPT[id]; !ok {
		t.Error("dirty page not in DPT")
	}
}

func TestAnalyzeCompletedWritesPruneDPT(t *testing.T) {
	r := newRig(t)
	idA := r.newRawPage(t)
	idB := r.newRawPage(t)
	r.update(t, idA, "a1")
	r.update(t, idB, "b1")
	// Page A written back (PRI update logged); page B not.
	if err := r.pool.FlushPage(idA); err != nil {
		t.Fatal(err)
	}
	r.log.FlushAll()

	res, err := Analyze(r.log, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.DPT[idA]; ok {
		t.Error("page A still in DPT despite logged completed write (Fig. 4 page 47)")
	}
	if _, ok := res.DPT[idB]; !ok {
		t.Error("page B missing from DPT (Fig. 4 page 63)")
	}
	// The PRI reflects A's last write.
	e, err := res.PRI.Get(idA)
	if err != nil || e.LastLSN == page.ZeroLSN {
		t.Errorf("PRI entry for A: %+v, %v", e, err)
	}
}

func TestAnalyzeUpdatesAfterWriteCompleteStayInDPT(t *testing.T) {
	r := newRig(t)
	id := r.newRawPage(t)
	r.update(t, id, "v1")
	if err := r.pool.FlushPage(id); err != nil {
		t.Fatal(err)
	}
	r.update(t, id, "v2") // re-dirtied after the completed write
	r.log.FlushAll()
	res, err := Analyze(r.log, 1024)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := res.DPT[id]
	if !ok {
		t.Fatal("re-dirtied page missing from DPT")
	}
	// The recLSN must be the v2 update, not the v1 one.
	e, _ := res.PRI.Get(id)
	if rec <= e.LastLSN {
		t.Errorf("recLSN %d not past completed write %d", rec, e.LastLSN)
	}
}

func TestCheckpointBoundsAnalysis(t *testing.T) {
	r := newRig(t)
	id := r.newRawPage(t)
	for i := 0; i < 20; i++ {
		r.update(t, id, "spin")
	}
	r.checkpoint(t)
	before := r.log.Size()
	r.update(t, id, "after-ckpt")
	r.log.FlushAll()
	res, err := Analyze(r.log, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointLSN == page.ZeroLSN {
		t.Fatal("analysis ignored the checkpoint")
	}
	// Analysis scanned only the post-checkpoint suffix.
	if res.RecordsScanned > 10 {
		t.Errorf("scanned %d records; checkpoint not honored (log size %d)", res.RecordsScanned, before)
	}
}

func TestRedoAppliesMissingUpdates(t *testing.T) {
	r := newRig(t)
	id := r.newRawPage(t)
	r.update(t, id, "persisted")
	if err := r.pool.FlushPage(id); err != nil {
		t.Fatal(err)
	}
	r.update(t, id, "lost-in-crash")
	r.log.FlushAll()
	// Crash: buffer contents gone.
	r.pool.Crash()

	res, err := Analyze(r.log, 1024)
	if err != nil {
		t.Fatal(err)
	}
	pool2 := buffer.NewPool(buffer.Config{
		Capacity: 64, Device: r.dev, Map: res.Map, Log: r.log,
	})
	rep, err := Redo(RedoDeps{
		Log: r.log, Pool: pool2, Map: res.Map, PRI: res.PRI,
		Applier: btree.Applier{}, PageSize: 512,
	}, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecordsApplied == 0 {
		t.Error("redo applied nothing")
	}
	h, err := pool2.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if string(h.Page().Payload()) != "lost-in-crash" {
		t.Errorf("page = %q after redo", h.Page().Payload())
	}
}

func TestRedoSkipsPagesAlreadyWritten(t *testing.T) {
	// Fig. 4: page 47 (written, logged) needs no read; page 63 does.
	r := newRig(t)
	id47 := r.newRawPage(t)
	id63 := r.newRawPage(t)
	r.update(t, id47, "forty-seven")
	r.update(t, id63, "sixty-three")
	if err := r.pool.FlushPage(id47); err != nil {
		t.Fatal(err)
	}
	r.log.FlushAll()
	r.pool.Crash()

	res, err := Analyze(r.log, 1024)
	if err != nil {
		t.Fatal(err)
	}
	pool2 := buffer.NewPool(buffer.Config{Capacity: 64, Device: r.dev, Map: res.Map, Log: r.log})
	rep, err := Redo(RedoDeps{
		Log: r.log, Pool: pool2, Map: res.Map, PRI: res.PRI,
		Applier: btree.Applier{}, PageSize: 512,
	}, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesRead > 1 {
		t.Errorf("redo read %d pages; page 47's read should be avoided", rep.PagesRead)
	}
}

func TestRedoRepairsLostPRIUpdate(t *testing.T) {
	// Fig. 12 redo row: page written before the crash, but the PRI update
	// record was lost. Redo finds PageLSN >= record LSN and repairs the
	// index, logging a new PRI record.
	r := newRig(t)
	id := r.newRawPage(t)
	r.update(t, id, "v1")
	// First flush: the page's slot binding becomes durable via the logged
	// PRI update.
	if err := r.pool.FlushPage(id); err != nil {
		t.Fatal(err)
	}
	r.log.FlushAll()
	// Second update, logged and stable; the page is then written back but
	// the crash hits between Fig. 11's steps: the data page write
	// completed, its PRI update record is still in the volatile tail.
	r.update(t, id, "v2")
	r.log.FlushAll() // v2 update record stable
	if err := r.pool.FlushPage(id); err != nil {
		t.Fatal(err)
	}
	r.crash() // v2's PRI update record (unflushed) vanishes; page write survived
	r.pool.Crash()

	res, err := Analyze(r.log, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.DPT[id]; !ok {
		t.Fatal("analysis must assume the page was not written (lost PRI update)")
	}
	pool2 := buffer.NewPool(buffer.Config{Capacity: 64, Device: r.dev, Map: res.Map, Log: r.log})
	repairs := 0
	rep, err := Redo(RedoDeps{
		Log: r.log, Pool: pool2, Map: res.Map, PRI: res.PRI,
		Applier: btree.Applier{}, PageSize: 512,
		LogPRIRepair: func(pid page.ID, lsn page.LSN) { repairs++ },
	}, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PRIRepairs == 0 || repairs == 0 {
		t.Errorf("lost PRI update not repaired: %+v, hook calls %d", rep, repairs)
	}
	// The PRI now has the correct LastLSN.
	h, _ := pool2.Fetch(id)
	want := h.Page().LSN()
	h.Release()
	e, err := res.PRI.Get(id)
	if err != nil || e.LastLSN != want {
		t.Errorf("PRI entry = %+v (%v), want LastLSN %d", e, err, want)
	}
}

func TestUndoRollsBackLosersInLSNOrder(t *testing.T) {
	r := newRig(t)
	id := r.newRawPage(t)
	r.update(t, id, "base")
	if err := r.pool.FlushPage(id); err != nil {
		t.Fatal(err)
	}

	loser := r.txns.Begin()
	h, _ := r.pool.Fetch(id)
	h.Lock()
	op := btree.EncodeRawSet([]byte("doomed"), append([]byte(nil), h.Page().Payload()...))
	lsn, err := loser.Log(&wal.Record{Type: wal.TypeUpdate, PageID: id, PagePrevLSN: h.Page().LSN(), Payload: op})
	if err != nil {
		t.Fatal(err)
	}
	if err := (btree.Applier{}).ApplyRedo(&wal.Record{Payload: op}, h.Page()); err != nil {
		t.Fatal(err)
	}
	h.Page().SetLSN(lsn)
	h.MarkDirty(lsn)
	h.Unlock()
	h.Release()
	r.log.FlushAll()
	r.pool.Crash()

	res, err := Analyze(r.log, 1024)
	if err != nil {
		t.Fatal(err)
	}
	pool2 := buffer.NewPool(buffer.Config{Capacity: 64, Device: r.dev, Map: res.Map, Log: r.log})
	if _, err := Redo(RedoDeps{
		Log: r.log, Pool: pool2, Map: res.Map, PRI: res.PRI,
		Applier: btree.Applier{}, PageSize: 512,
	}, res); err != nil {
		t.Fatal(err)
	}
	txns2 := txn.NewManager(r.log)
	txns2.SetUndoer(rawUndoer{pool2})
	rep, err := Undo(txns2, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LosersRolledBack != 1 {
		t.Errorf("losers = %d", rep.LosersRolledBack)
	}
	h2, _ := pool2.Fetch(id)
	defer h2.Release()
	if string(h2.Page().Payload()) != "base" {
		t.Errorf("page = %q after undo, want base", h2.Page().Payload())
	}
}

// rawUndoer compensates raw-set updates physically.
type rawUndoer struct{ pool *buffer.Pool }

func (u rawUndoer) Undo(t *txn.Txn, rec *wal.Record) error {
	h, err := u.pool.Fetch(rec.PageID)
	if err != nil {
		return err
	}
	defer h.Release()
	h.Lock()
	defer h.Unlock()
	// Decode old payload: EncodeRawSet(new, old); build inverse op.
	// The btree package exposes the generic inverse through Compensate,
	// but for raw pages the swap is direct.
	inv, err := invertRawSet(rec.Payload)
	if err != nil {
		return err
	}
	lsn, err := t.LogCLR(rec.PageID, h.Page().LSN(), inv, rec.PrevLSN)
	if err != nil {
		return err
	}
	if err := (btree.Applier{}).ApplyRedo(&wal.Record{Payload: inv}, h.Page()); err != nil {
		return err
	}
	h.Page().SetLSN(lsn)
	h.MarkDirty(lsn)
	return nil
}

func invertRawSet(payload []byte) ([]byte, error) {
	// opRawSet layout: [1] u32 newLen new u32 oldLen old.
	if len(payload) < 9 {
		return nil, btree.ErrBadOp
	}
	n := int(uint32(payload[1]) | uint32(payload[2])<<8 | uint32(payload[3])<<16 | uint32(payload[4])<<24)
	newP := payload[5 : 5+n]
	rest := payload[5+n:]
	m := int(uint32(rest[0]) | uint32(rest[1])<<8 | uint32(rest[2])<<16 | uint32(rest[3])<<24)
	oldP := rest[4 : 4+m]
	return btree.EncodeRawSet(oldP, newP), nil
}

func TestCheckpointRoundTrip(t *testing.T) {
	r := newRig(t)
	id := r.newRawPage(t)
	r.update(t, id, "x")
	open := r.txns.Begin() // active at checkpoint
	res, err := Checkpoint(CheckpointDeps{
		Log: r.log, Pool: r.pool, Txns: r.txns, PRI: r.pri, Map: r.pmap,
	})
	if err != nil {
		t.Fatal(err)
	}
	end := res.End
	if r.log.Master() != end {
		t.Errorf("master = %d, want %d", r.log.Master(), end)
	}
	if res.RedoHorizon > end {
		t.Errorf("redo horizon %d above end record %d", res.RedoHorizon, end)
	}
	rec, err := r.log.Read(end)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := decodeCheckpoint(rec.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.att) != 1 || ck.att[0].ID != open.ID() {
		t.Errorf("ATT = %+v", ck.att)
	}
	if len(ck.pri) == 0 || len(ck.pmap) == 0 {
		t.Error("snapshots missing")
	}
	if err := open.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCheckpointRejectsGarbage(t *testing.T) {
	if _, err := decodeCheckpoint([]byte{1, 2, 3}); err == nil {
		t.Error("short payload accepted")
	}
	// Claimed huge ATT with no data.
	bad := make([]byte, 8)
	bad[0] = 0xFF
	if _, err := decodeCheckpoint(bad); err == nil {
		t.Error("truncated payload accepted")
	}
}

// TestLateBornPagesReachMediaPreparationWithTheirFormatRecords: media
// preparation finds the backup of a page born after the newest full set in
// the analysed index — the page's format record, registered by a
// checkpoint's index snapshot or by the analysis scan — and needs no chain
// walk to find one. That holds even for the one way such a page's entry
// starts out without a backup: its born-dirty frame written back before
// its format record was logged (a flush between buffer.Pool.Create and the
// record). The scan registers the format record that follows.
func TestLateBornPagesReachMediaPreparationWithTheirFormatRecords(t *testing.T) {
	r := newRig(t)
	store := backup.NewStore(storage.NewDevice(storage.Config{PageSize: 512, Slots: 64, Profile: iosim.Instant}))
	old := r.newRawPage(t)
	if err := r.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	w := store.BeginFullSet(r.log.EndLSN())
	h, err := r.pool.Fetch(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(h.Page().Clone()); err != nil {
		t.Fatal(err)
	}
	h.Release()
	w.Commit()

	snapshotted := r.newRawPage(t)
	r.checkpoint(t)
	scanned := r.newRawPage(t)
	tx := r.txns.Begin()
	early := r.pmap.AllocateLogical()
	h, err = r.pool.Create(early, page.TypeRaw)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.pool.FlushPage(early); err != nil {
		t.Fatal(err)
	}
	if e, err := r.pri.Get(early); err != nil || e.Backup.Kind != core.BackupNone {
		t.Fatalf("entry of the page written before its format record: %+v, %v", e, err)
	}
	lsn, err := tx.Log(&wal.Record{Type: wal.TypeFormat, PageID: early, Payload: backup.FormatPayload(page.TypeRaw, nil)})
	if err != nil {
		t.Fatal(err)
	}
	h.Lock()
	h.Page().SetLSN(lsn)
	h.MarkDirty(lsn)
	h.Unlock()
	h.Release()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	late := []page.ID{snapshotted, scanned, early}
	for _, id := range late {
		r.update(t, id, "born after the set")
	}
	r.log.FlushAll()
	r.crash()
	r.pool.Crash()

	a, err := Analyze(r.log, 1024)
	if err != nil {
		t.Fatal(err)
	}
	backlog, rep, err := PrepareMedia(store, a, w.SetID())
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog) != 1+len(late) || rep.LateBornPages != len(late) {
		t.Fatalf("backlog of %d pages, %d late-born; want %d, %d", len(backlog), rep.LateBornPages, 1+len(late), len(late))
	}
	rec := core.NewRecoverer(r.log, a.PRI, &backup.Resolver{Store: store, Log: r.log, PageSize: 512}, btree.Applier{})
	for _, id := range late {
		if e, err := a.PRI.Get(id); err != nil || e.Backup.Kind != core.BackupLog {
			t.Fatalf("page %d born after the set reaches media preparation with %+v, %v", id, e, err)
		}
		if pg, _, err := rec.RecoverPage(id, nil); err != nil || string(pg.Payload()) != "born after the set" {
			t.Fatalf("page %d: recovered %v, %v", id, pg, err)
		}
	}
}
