package recovery

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/archive"
	"repro/internal/backup"
	"repro/internal/btree"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/storage"
	"repro/internal/wal"
)

// TestAnalysedHeadsMatchAFullLogScan is the oracle for "analysis is the one
// source of a page's recovery target". A seeded workload — committed
// updates, write-backs, page backups, a full backup, checkpoints, archive
// runs with recycling and release, an in-flight loser — ends in a crash
// that cuts the unflushed log tail. Then, for every page, the target
// analysis reports (Heads for a page in the recovery requirements, the
// analysed index otherwise) must be the newest chain record a test-side
// scan of the whole log finds for it — for restart preparation and for
// media preparation — and single-page recovery against the prepared index
// must rebuild the page to exactly that LSN. The archive keeps chain
// records only and Scan does not reach into it, so the oracle scans the
// live log as it goes, each stretch before an archiver step can recycle it.
func TestAnalysedHeadsMatchAFullLogScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runHeadsOracle(t, seed) })
	}
}

func runHeadsOracle(t *testing.T, seed int64) {
	defer chaos.Reset()
	rng := rand.New(rand.NewSource(seed))
	r := newRig(t)
	arch := archive.NewStore(iosim.Instant, wal.FirstLSN())
	r.log.SetArchive(arch.NewReader())
	archiver := archive.New(r.log, arch, archive.Config{SegmentBytes: 2 << 10})
	store := backup.NewStore(storage.NewDevice(storage.Config{PageSize: 512, Slots: 4096, Profile: iosim.Instant}))

	// The oracle: every page's chain records and the PageLSN of its newest
	// write-complete, scanned from the live log up to its flushed end before
	// each archiver step.
	scanned := make(map[page.ID]page.LSN)
	chains := make(map[page.ID][]page.LSN)
	written := make(map[page.ID]page.LSN)
	cursor := wal.FirstLSN()
	observe := func(upTo page.LSN) {
		t.Helper()
		if err := r.log.Scan(cursor, func(rec *wal.Record) bool {
			if rec.LSN >= upTo {
				return false
			}
			switch rec.Type {
			case wal.TypeUpdate, wal.TypeCLR, wal.TypeFormat:
				scanned[rec.PageID] = rec.LSN
				chains[rec.PageID] = append(chains[rec.PageID], rec.LSN)
			case wal.TypePRIUpdate:
				if op, _ := core.DecodePRIOp(rec.Payload); op == core.PRIOpWriteComplete {
					wc, err := core.DecodeWriteComplete(rec.Payload)
					if err != nil {
						t.Fatal(err)
					}
					written[rec.PageID] = max(written[rec.PageID], wc.PageLSN)
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		cursor = upTo
	}

	var pages []page.ID
	for i := 0; i < 16; i++ {
		pages = append(pages, r.newRawPage(t))
	}
	set := uint64(0)
	fullBackup := func() {
		if err := r.pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		r.log.FlushAll()
		takenAt := r.log.EndLSN()
		w := store.BeginFullSet(takenAt)
		for _, id := range pages {
			h, err := r.pool.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Add(h.Page().Clone()); err != nil {
				t.Fatal(err)
			}
			h.Release()
		}
		w.Commit()
		set = w.SetID()
		e := core.Entry{Backup: core.BackupRef{Kind: core.BackupFull, Loc: set}}
		lo, hi := pages[0], pages[len(pages)-1]
		r.pri.ReplaceRange(lo, hi, e, takenAt)
		r.log.Append(&wal.Record{Type: wal.TypePRIUpdate, PageID: lo, Payload: core.EncodeSetRange(lo, hi, e, takenAt)})
		r.log.FlushAll()
		archiver.SetBackupHorizon(takenAt)
	}
	pageBackup := func(id page.ID) {
		if err := r.pool.FlushPage(id); err != nil {
			return // not resident: nothing newer than the device to copy
		}
		h, err := r.pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		rec := backup.ImageRecord(h.Page())
		h.Release()
		r.log.Append(rec)
		ref, err := backup.ImageRef(rec)
		if err != nil {
			t.Fatal(err)
		}
		r.pri.SetBackup(id, ref)
	}

	for step := 0; step < 400; step++ {
		id := pages[rng.Intn(len(pages))]
		switch n := rng.Intn(100); {
		case n < 60:
			r.update(t, id, fmt.Sprintf("s%d", step))
		case n < 75:
			_ = r.pool.FlushPage(id)
		case n < 80:
			_ = r.pool.Evict(id)
		case n < 85:
			pageBackup(id)
		case n < 88:
			pages = append(pages, r.newRawPage(t))
		case n < 94:
			// The checkpoint is not alone: a page is dirtied twice after
			// its flush pass (so its DPT row's page LSN is past its RecLSN),
			// and a commit, a write-back and a fresh dirtying land between
			// its snapshots and its end record.
			other := pages[rng.Intn(len(pages))]
			chaos.Arm("recovery.checkpoint", 1, func(chaos.Hit) {
				r.update(t, id, "in-ckpt-1")
				r.update(t, id, "in-ckpt-2")
			})
			chaos.Arm("recovery.checkpoint.snapshot", 1, func(chaos.Hit) {
				_ = r.pool.FlushPage(id)
				r.update(t, other, "in-window")
			})
			res, err := Checkpoint(CheckpointDeps{
				Log: r.log, Pool: r.pool, Txns: r.txns, PRI: r.pri, Map: r.pmap,
			})
			if err != nil {
				t.Fatal(err)
			}
			archiver.SetCheckpointHorizon(res.RedoHorizon)
		default:
			observe(r.log.FlushedLSN())
			if err := archiver.Step(true); err != nil {
				t.Fatal(err)
			}
		}
		if step == 200 {
			fullBackup()
		}
	}
	if r.log.TruncatedLSN() == wal.FirstLSN() {
		t.Fatal("the workload never recycled a log segment")
	}
	// An in-flight transaction: its update is flushed, its commit never comes.
	loser := r.txns.Begin()
	h, err := r.pool.Fetch(pages[0])
	if err != nil {
		t.Fatal(err)
	}
	h.Lock()
	op := btree.EncodeRawSet([]byte("loser"), append([]byte(nil), h.Page().Payload()...))
	lsn, err := loser.Log(&wal.Record{Type: wal.TypeUpdate, PageID: pages[0], PagePrevLSN: h.Page().LSN(), Payload: op})
	if err != nil {
		t.Fatal(err)
	}
	h.Page().SetLSN(lsn)
	h.MarkDirty(lsn)
	h.Unlock()
	h.Release()
	r.update(t, pages[1], "last commit: forces the loser's record")
	_ = r.pool.FlushPage(pages[2]) // its completed-write record dies in the tail
	r.crash()
	r.pool.Crash()

	observe(r.log.EndLSN())
	want := func(id page.ID) page.LSN { return scanned[id] }
	// check recovers every page against pri and compares with the oracle.
	check := func(phase string, pri *core.PRI) {
		t.Helper()
		rec := core.NewRecoverer(r.log, pri, &backup.Resolver{Store: store, Log: r.log, PageSize: 512}, btree.Applier{})
		for _, id := range pages {
			pg, _, err := rec.RecoverPage(id, nil)
			if err != nil {
				t.Fatalf("%s: recovering page %d: %v", phase, id, err)
			}
			if pg.LSN() != want(id) {
				e, _ := pri.Get(id)
				t.Fatalf("%s: page %d recovered to LSN %d, the log's newest record for it is %d (entry %+v)",
					phase, id, pg.LSN(), want(id), e)
			}
		}
	}

	a, err := Analyze(r.log, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.DPT) == 0 || len(a.DPT) == len(pages) {
		t.Fatalf("%d of %d pages in the recovery requirements: the workload should leave some in, some out", len(a.DPT), len(pages))
	}
	for id := range a.DPT {
		if a.Heads[id] != want(id) {
			t.Errorf("page %d: analysed head %d, full scan %d", id, a.Heads[id], want(id))
		}
	}
	// The recovery requirements hold a page iff its newest chain record
	// lies above its newest write-complete, and its RecLSN lies above that
	// write-complete and at or below the first chain record above it.
	for _, id := range pages {
		recLSN, dirty := a.DPT[id]
		if want := scanned[id] > written[id]; dirty != want {
			t.Errorf("page %d: in the recovery requirements %v; newest chain record %d, newest write-complete %d",
				id, dirty, scanned[id], written[id])
			continue
		}
		if !dirty {
			continue
		}
		first := scanned[id]
		for _, l := range chains[id] {
			if l > written[id] {
				first = min(first, l)
			}
		}
		if recLSN <= written[id] || recLSN > first {
			t.Errorf("page %d: RecLSN %d; newest write-complete %d, first chain record above it %d",
				id, recLSN, written[id], first)
		}
	}
	marks, _ := PrepareRedo(a)
	for _, m := range marks {
		if e, _ := a.PRI.Get(m.ID); e.LastLSN != want(m.ID) {
			t.Errorf("page %d expected at %d, full scan %d", m.ID, e.LastLSN, want(m.ID))
		}
	}
	check("restart", a.PRI)

	m, err := Analyze(r.log, 1024)
	if err != nil {
		t.Fatal(err)
	}
	r.dev.FailDevice()
	r.dev.Revive()
	backlog, rep, err := PrepareMedia(store, m, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog) != len(pages) || rep.LateBornPages == 0 {
		t.Fatalf("media backlog %d pages (%d late-born) of %d", len(backlog), rep.LateBornPages, len(pages))
	}
	for _, id := range pages {
		if slot, bound := m.Map.Lookup(id); bound || !m.Map.Known(id) {
			t.Errorf("page %d: bound %v (slot %d) on a device that holds nothing", id, bound, slot)
		}
	}
	check("media", m.PRI)
}

// FuzzDecodeCheckpoint: the checkpoint-end payload decoder never panics,
// consumes its whole input or rejects it, and round-trips what
// encodeCheckpoint writes.
func FuzzDecodeCheckpoint(f *testing.F) {
	// One real payload: an active transaction, a dirty page, both snapshots.
	r := newRig(f)
	id := r.newRawPage(f)
	r.update(f, id, "x")
	r.txns.Begin()
	res, err := Checkpoint(CheckpointDeps{
		Log: r.log, Pool: r.pool, Txns: r.txns, PRI: r.pri, Map: r.pmap,
	})
	if err != nil {
		f.Fatal(err)
	}
	rec, err := r.log.Read(res.End)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Payload)
	f.Add([]byte{})
	f.Add(make([]byte, 40))
	f.Fuzz(func(t *testing.T, payload []byte) {
		c, err := decodeCheckpoint(payload)
		if err != nil {
			return
		}
		again := encodeCheckpoint(c)
		if string(again) != string(payload) {
			t.Fatalf("decode accepted %d bytes that re-encode to %d different ones", len(payload), len(again))
		}
		if _, err := decodeCheckpoint(append(again, 0)); err == nil {
			t.Fatal("decode accepted a trailing byte")
		}
	})
}

// TestAnalyzeTakesHeadFromDPTRow: a page the checkpoint found dirty whose
// records all lie below the begin LSN — the scan never meets them — has its
// chain head in the DPT row's page LSN.
func TestAnalyzeTakesHeadFromDPTRow(t *testing.T) {
	r := newRig(t)
	id := r.newRawPage(t)
	r.update(t, id, "u1")
	r.update(t, id, "u2")
	rows := r.pool.DirtyPages()
	if len(rows) != 1 || rows[0].PageLSN <= rows[0].RecLSN {
		t.Fatalf("dirty page table %+v, want one row with its page LSN past its RecLSN", rows)
	}
	begin := r.log.Append(&wal.Record{Type: wal.TypeCheckpointBegin})
	end := r.log.Append(&wal.Record{Type: wal.TypeCheckpointEnd, Payload: encodeCheckpoint(checkpointData{
		begin: begin, dpt: rows, pri: r.pri.Snapshot(), pmap: r.pmap.Snapshot(),
	})})
	r.log.FlushAll()
	r.log.SetMaster(end)

	a, err := Analyze(r.log, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if a.DPT[id] != rows[0].RecLSN || a.Heads[id] != rows[0].PageLSN {
		t.Fatalf("analysis: redo from %d to %d, want %d to %d", a.DPT[id], a.Heads[id], rows[0].RecLSN, rows[0].PageLSN)
	}
}

// TestAnalysisRecLSNPassesAnOvertakenWriteComplete: a write-back's image is
// taken at one update, a second update to the page is logged before the
// write-back's write-complete record, and the log ends there. The page stays
// in the recovery requirements with its RecLSN above the image's PageLSN —
// the image holds the first update — and at or below the second.
func TestAnalysisRecLSNPassesAnOvertakenWriteComplete(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	const id, tx = page.ID(1), wal.TxnID(1)
	f := log.Append(&wal.Record{Type: wal.TypeFormat, Txn: tx, PageID: id, Payload: backup.FormatPayload(page.TypeRaw, nil)})
	u1 := log.Append(&wal.Record{Type: wal.TypeUpdate, Txn: tx, PageID: id, PagePrevLSN: f})
	u2 := log.Append(&wal.Record{Type: wal.TypeUpdate, Txn: tx, PageID: id, PagePrevLSN: u1})
	log.Append(&wal.Record{Type: wal.TypePRIUpdate, PageID: id,
		Payload: core.EncodeWriteComplete(core.WriteCompletePayload{PageLSN: u1, Dest: 1})})
	log.Append(&wal.Record{Type: wal.TypeCommit, Txn: tx})
	log.FlushAll()

	a, err := Analyze(log, 16)
	if err != nil {
		t.Fatal(err)
	}
	recLSN, dirty := a.DPT[id]
	if !dirty || a.Heads[id] != u2 {
		t.Fatalf("page in the recovery requirements %v, head %d; want true, %d", dirty, a.Heads[id], u2)
	}
	if recLSN <= u1 || recLSN > u2 {
		t.Fatalf("RecLSN %d; the write-complete's PageLSN is %d, the update it did not cover %d", recLSN, u1, u2)
	}
}
