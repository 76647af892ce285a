package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/wal"
)

// buildLog appends perPage chained updates to each page, interleaved
// round-robin (so page histories are scattered across the LSN space the
// way real workloads scatter them), flushes, and returns the log plus
// independent copies of every record in LSN order.
func buildLog(t *testing.T, pages []page.ID, perPage int) (*wal.Manager, []*wal.Record) {
	t.Helper()
	m := wal.NewManager(iosim.Instant)
	last := make(map[page.ID]page.LSN)
	for i := 0; i < perPage; i++ {
		for _, pg := range pages {
			typ := wal.TypeUpdate
			if last[pg] == page.ZeroLSN {
				typ = wal.TypeFormat
			}
			last[pg] = m.Append(&wal.Record{
				Type: typ, Txn: 1, PageID: pg, PagePrevLSN: last[pg],
				Payload: []byte{byte(pg), byte(i)},
			})
		}
	}
	m.FlushAll()
	return m, collect(t, m, wal.FirstLSN(), m.FlushedLSN())
}

// collect copies the live records with lo ≤ LSN < hi.
func collect(t *testing.T, m *wal.Manager, lo, hi page.LSN) []*wal.Record {
	t.Helper()
	var recs []*wal.Record
	err := m.Scan(lo, func(r *wal.Record) bool {
		if r.LSN >= hi {
			return false
		}
		cp := *r
		cp.Payload = append([]byte(nil), r.Payload...)
		recs = append(recs, &cp)
		return true
	})
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return recs
}

// headOf returns the newest record of pg among recs (ascending LSN): the
// chain head a caller of the log would hold in its page recovery index.
func headOf(t *testing.T, recs []*wal.Record, pg page.ID) page.LSN {
	t.Helper()
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].PageID == pg {
			return recs[i].LSN
		}
	}
	t.Fatalf("page %d has no records", pg)
	return page.ZeroLSN
}

func sameRecord(a, b *wal.Record) bool {
	if a.LSN != b.LSN || a.Type != b.Type || a.Txn != b.Txn ||
		a.PrevLSN != b.PrevLSN || a.PageID != b.PageID ||
		a.PagePrevLSN != b.PagePrevLSN || a.UndoNext != b.UndoNext ||
		len(a.Payload) != len(b.Payload) {
		return false
	}
	for i := range a.Payload {
		if a.Payload[i] != b.Payload[i] {
			return false
		}
	}
	return true
}

func TestAppendRunAndReadRecord(t *testing.T) {
	_, recs := buildLog(t, []page.ID{3, 7, 9}, 5)
	s := NewStore(iosim.Instant, wal.FirstLSN())
	if err := s.AppendRun(recs, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range recs {
		got, err := s.ReadRecord(want.LSN)
		if err != nil {
			t.Fatalf("ReadRecord(%d): %v", want.LSN, err)
		}
		if !sameRecord(got, want) {
			t.Fatalf("record %d round-trip mismatch: got %+v want %+v", want.LSN, got, want)
		}
	}
	st := s.Stats()
	if st.Runs != 1 || st.Records != int64(len(recs)) {
		t.Errorf("stats = %+v, want 1 run / %d records", st, len(recs))
	}
	if st.ArchivedLSN != recs[len(recs)-1].LSN+page.LSN(wal.RecordSize(recs[len(recs)-1])) {
		t.Errorf("ArchivedLSN = %d", st.ArchivedLSN)
	}
}

func TestAppendRunIdempotentOverlap(t *testing.T) {
	_, recs := buildLog(t, []page.ID{1, 2}, 6)
	s := NewStore(iosim.Instant, wal.FirstLSN())
	half := len(recs) / 2
	if err := s.AppendRun(recs[:half], nil); err != nil {
		t.Fatal(err)
	}
	// Re-archiving the full range (the crash-between-archive-and-recycle
	// shape: the cursor is stale, the records overlap) must silently skip
	// the archived prefix and append only the rest.
	if err := s.AppendRun(recs, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Records; got != int64(len(recs)) {
		t.Fatalf("after overlapping append: %d records archived, want %d", got, len(recs))
	}
	// A full replay of already-archived history is a no-op, not an error.
	if err := s.AppendRun(recs, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Runs; got != 2 {
		t.Fatalf("runs = %d, want 2", got)
	}
}

func TestAppendRunRejectsGap(t *testing.T) {
	_, recs := buildLog(t, []page.ID{1}, 4)
	s := NewStore(iosim.Instant, wal.FirstLSN())
	if err := s.AppendRun(recs[1:], nil); !errors.Is(err, ErrNotContiguous) {
		t.Fatalf("gapped run: err = %v, want ErrNotContiguous", err)
	}
}

func TestWalkChainMatchesLiveWalk(t *testing.T) {
	m, recs := buildLog(t, []page.ID{4, 5, 6}, 8)
	s := NewStore(iosim.Instant, wal.FirstLSN())
	// Split across several runs so the walk crosses run boundaries.
	third := len(recs) / 3
	for _, part := range [][]*wal.Record{recs[:third], recs[third : 2*third], recs[2*third:]} {
		if err := s.AppendRun(part, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, pg := range []page.ID{4, 5, 6} {
		head := headOf(t, recs, pg)
		want, err := m.WalkPageChain(head, page.ZeroLSN, pg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.WalkChain(head, page.ZeroLSN, pg)
		if err != nil {
			t.Fatalf("archive walk of page %d: %v", pg, err)
		}
		if len(got) != len(want) {
			t.Fatalf("page %d: archive chain %d records, live %d", pg, len(got), len(want))
		}
		for i := range got {
			if !sameRecord(got[i], want[i]) {
				t.Fatalf("page %d chain[%d]: got %+v want %+v", pg, i, got[i], want[i])
			}
		}
	}
}

func TestReleaseBelowDropsRunsAndRebuildsHeads(t *testing.T) {
	_, recs := buildLog(t, []page.ID{1, 2}, 10)
	s := NewStore(iosim.Instant, wal.FirstLSN())
	half := len(recs) / 2
	if err := s.AppendRun(recs[:half], nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRun(recs[half:], nil); err != nil {
		t.Fatal(err)
	}
	cutLSN := recs[half].LSN
	if n := s.ReleaseBelow(cutLSN); n != 1 {
		t.Fatalf("ReleaseBelow dropped %d runs, want 1", n)
	}
	if _, err := s.ReadRecord(recs[0].LSN); !errors.Is(err, ErrReleased) {
		t.Fatalf("read of released record: err = %v, want ErrReleased", err)
	}
	// The retained suffix of a chain still walks; below the cut it is gone.
	head := headOf(t, recs, 1)
	suffix, err := s.WalkChain(head, cutLSN-1, 1)
	if err != nil {
		t.Fatalf("walk of the retained suffix: %v", err)
	}
	want := 0
	for _, r := range recs[half:] {
		if r.PageID == 1 {
			want++
		}
	}
	if len(suffix) != want {
		t.Errorf("retained suffix walked %d records, want %d", len(suffix), want)
	}
	if _, err := s.WalkChain(head, page.ZeroLSN, 1); !errors.Is(err, ErrReleased) {
		t.Errorf("walk below the release horizon: err = %v, want ErrReleased", err)
	}
	if st := s.Stats(); st.ReleasedRuns != 1 || st.ReleasedLSN != cutLSN {
		t.Errorf("release stats = %+v", st)
	}
}

func TestReaderRetriesTransientFault(t *testing.T) {
	_, recs := buildLog(t, []page.ID{1}, 4)
	s := NewStore(iosim.Instant, wal.FirstLSN())
	if err := s.AppendRun(recs, nil); err != nil {
		t.Fatal(err)
	}
	r := s.NewReader()
	s.FailReads(2)
	rec, err := r.ReadRecord(recs[1].LSN)
	if err != nil {
		t.Fatalf("transient fault not retried: %v", err)
	}
	if !sameRecord(rec, recs[1]) {
		t.Fatal("retried read returned wrong record")
	}
	if st := s.Stats(); st.Retries < 2 || st.ReadFaults != 2 {
		t.Errorf("fault stats = %+v, want ≥2 retries / 2 read faults", st)
	}
	// A sticky fault exhausts the budget and surfaces.
	s.FailReads(-1)
	if _, err := r.ReadRecord(recs[1].LSN); !errors.Is(err, ErrArchiveIO) {
		t.Fatalf("sticky fault: err = %v, want ErrArchiveIO", err)
	}
	s.FailReads(0)
}

func TestArchiverStepRecyclesAndPausesOnFault(t *testing.T) {
	m, _ := buildLog(t, []page.ID{1, 2, 3}, 12)
	// Over a chunk's worth of bulk history so recycling frees real chunks.
	bulkPrev := page.ZeroLSN
	for i := 0; i < 40; i++ {
		typ := wal.TypeUpdate
		if bulkPrev == page.ZeroLSN {
			typ = wal.TypeFormat
		}
		bulkPrev = m.Append(&wal.Record{Type: typ, Txn: 7, PageID: 30,
			PagePrevLSN: bulkPrev, Payload: make([]byte, 32<<10)})
	}
	m.FlushAll()
	s := NewStore(iosim.Instant, wal.FirstLSN())
	a := New(m, s, Config{SegmentBytes: 256})
	a.SetCheckpointHorizon(m.FlushedLSN())
	if err := a.Step(true); err != nil {
		t.Fatal(err)
	}
	if got, want := s.ArchivedUpTo(), m.FlushedLSN(); got != want {
		t.Fatalf("archived up to %d, want flushed %d", got, want)
	}
	if m.TruncatedLSN() != m.FlushedLSN() {
		t.Fatalf("recycle left base at %d, want %d", m.TruncatedLSN(), m.FlushedLSN())
	}
	if st := m.Stats(); st.RecycledSegments == 0 {
		t.Error("no chunks recycled despite a full-segment truncation")
	}

	// More history + a sticky archive fault: the step must pause the
	// lifecycle and leave the base where it was.
	last := page.ZeroLSN
	for i := 0; i < 50; i++ {
		last = m.Append(&wal.Record{Type: wal.TypeUpdate, Txn: 2, PageID: 9,
			PagePrevLSN: last, Payload: make([]byte, 64)})
	}
	m.FlushAll()
	base := m.TruncatedLSN()
	s.FailWrites(-1)
	a.SetCheckpointHorizon(m.FlushedLSN())
	if err := a.Step(true); !errors.Is(err, ErrArchiveIO) {
		t.Fatalf("faulted step: err = %v, want ErrArchiveIO", err)
	}
	if !a.Paused() {
		t.Error("archiver not paused after write-fault exhaustion")
	}
	if m.TruncatedLSN() != base {
		t.Error("recycling advanced while the archive was unavailable")
	}
	// Device recovers: the same step retries from the same cursor.
	s.FailWrites(0)
	if err := a.Step(true); err != nil {
		t.Fatal(err)
	}
	if a.Paused() {
		t.Error("archiver still paused after recovery")
	}
	if m.TruncatedLSN() != m.FlushedLSN() {
		t.Errorf("post-recovery base = %d, want %d", m.TruncatedLSN(), m.FlushedLSN())
	}
}

// TestArchiverWithoutStoreRecyclesBelowBothHorizons: with no archive the
// live log is the only copy of history, so a step recycles only below the
// checkpoint horizon AND the release horizon — the backup horizon clamped
// by the engine's floor — and a checkpoint alone frees nothing.
func TestArchiverWithoutStoreRecyclesBelowBothHorizons(t *testing.T) {
	m, recs := buildLog(t, []page.ID{1, 2, 3}, 12)
	for i := 0; i < 40; i++ {
		m.Append(&wal.Record{Type: wal.TypeUpdate, Txn: 7, PageID: 30, Payload: make([]byte, 32<<10)})
	}
	m.FlushAll()
	base, end, mid := m.TruncatedLSN(), m.FlushedLSN(), recs[len(recs)/2].LSN
	floor := mid
	a := New(m, nil, Config{ReleaseFloor: func() page.LSN { return floor }})

	a.SetCheckpointHorizon(end)
	if err := a.Step(true); err != nil || m.TruncatedLSN() != base {
		t.Fatalf("checkpoint alone: base %d → %d (%v), want no recycle", base, m.TruncatedLSN(), err)
	}
	a.SetBackupHorizon(end)
	if err := a.Step(false); err != nil || m.TruncatedLSN() != mid {
		t.Fatalf("base = %d (%v), want the floor %d", m.TruncatedLSN(), err, mid)
	}
	floor = end
	if err := a.Step(false); err != nil || m.TruncatedLSN() != end {
		t.Fatalf("base = %d (%v) once the floor lifted, want %d", m.TruncatedLSN(), err, end)
	}
	if m.Stats().RecycledSegments == 0 {
		t.Error("no chunks recycled despite a truncation past a chunk")
	}
	if st := a.Stats(); a.Paused() || st != (Stats{}) {
		t.Errorf("archiver without a store reports %+v, paused %v", st, a.Paused())
	}
}

func TestRecycledReadsFallBackToArchive(t *testing.T) {
	m, recs := buildLog(t, []page.ID{21, 22}, 9)
	s := NewStore(iosim.Instant, wal.FirstLSN())
	m.SetArchive(s.NewReader())
	if err := s.AppendRun(recs, nil); err != nil {
		t.Fatal(err)
	}
	m.Recycle(m.FlushedLSN())
	if m.TruncatedLSN() != m.FlushedLSN() {
		t.Fatalf("base = %d after recycle, want %d", m.TruncatedLSN(), m.FlushedLSN())
	}
	// Point read below the base is served from the archive.
	rec, err := m.Read(recs[0].LSN)
	if err != nil {
		t.Fatalf("read of recycled record: %v", err)
	}
	if !sameRecord(rec, recs[0]) {
		t.Fatal("archive fallback returned wrong record")
	}
	if st := m.Stats(); st.ArchiveReads == 0 {
		t.Error("archive fallback not counted")
	}
}

// The boundary-crossing integration shapes: part of the history is
// archived and recycled, the rest is live, and every wal read path must
// stitch the two transparently.

func TestScanAcrossRecycleBoundary(t *testing.T) {
	m, recs := buildLog(t, []page.ID{1, 2}, 10)
	s := NewStore(iosim.Instant, wal.FirstLSN())
	m.SetArchive(s.NewReader())
	half := len(recs) / 2
	if err := s.AppendRun(recs[:half], nil); err != nil {
		t.Fatal(err)
	}
	m.Recycle(recs[half].LSN)
	// The archive holds chain records, not the LSN-ordered stream: a scan
	// that starts below the boundary fails before it visits anything, even
	// with the archive attached.
	visited := 0
	err := m.Scan(wal.FirstLSN(), func(*wal.Record) bool { visited++; return true })
	if !errors.Is(err, wal.ErrTruncated) || visited != 0 {
		t.Fatalf("scan below the boundary: err = %v after %d records, want ErrTruncated before any", err, visited)
	}
	// From the boundary on, the scan is the live log.
	var got []page.LSN
	if err := m.Scan(m.TruncatedLSN(), func(r *wal.Record) bool {
		got = append(got, r.LSN)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs)-half {
		t.Fatalf("live scan saw %d records, want %d", len(got), len(recs)-half)
	}
	for i, r := range recs[half:] {
		if got[i] != r.LSN {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i], r.LSN)
		}
	}
}

func TestWalkPageChainAcrossRecycleBoundary(t *testing.T) {
	m, recs := buildLog(t, []page.ID{41, 42}, 12)
	head := headOf(t, recs, 41)
	want, err := m.WalkPageChain(head, page.ZeroLSN, 41)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(iosim.Instant, wal.FirstLSN())
	m.SetArchive(s.NewReader())
	half := len(recs) / 2
	if err := s.AppendRun(recs[:half], nil); err != nil {
		t.Fatal(err)
	}
	m.Recycle(recs[half].LSN)
	got, err := m.WalkPageChain(head, page.ZeroLSN, 41)
	if err != nil {
		t.Fatalf("boundary chain walk: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("boundary walk returned %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("boundary walk[%d] differs: got %+v want %+v", i, got[i], want[i])
		}
	}
	// A transient archive fault mid-replay is absorbed by the reader.
	s.FailReads(1)
	if _, err := m.WalkPageChain(head, page.ZeroLSN, 41); err != nil {
		t.Fatalf("chain walk with transient archive fault: %v", err)
	}
}

func TestRecycleReusesFreedChunks(t *testing.T) {
	m := wal.NewManager(iosim.Instant)
	s := NewStore(iosim.Instant, wal.FirstLSN())
	m.SetArchive(s.NewReader())
	prev := page.ZeroLSN
	writeChunk := func() {
		for i := 0; i < 40; i++ {
			typ := wal.TypeUpdate
			if prev == page.ZeroLSN {
				typ = wal.TypeFormat
			}
			prev = m.Append(&wal.Record{Type: typ, Txn: 1, PageID: 5,
				PagePrevLSN: prev, Payload: make([]byte, 32<<10)})
		}
		m.FlushAll()
	}
	for round := 0; round < 4; round++ {
		writeChunk()
		recs := collect(t, m, s.ArchivedUpTo(), m.FlushedLSN())
		if err := s.AppendRun(recs, nil); err != nil {
			t.Fatal(err)
		}
		m.Recycle(m.FlushedLSN())
	}
	if got := m.Stats().RecycledSegments; got < 4 {
		t.Errorf("recycled %d chunks over 4 rounds, want ≥4", got)
	}
	// The full history is still replayable across all those boundaries.
	chain, err := m.WalkPageChain(prev, page.ZeroLSN, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 160 {
		t.Errorf("replayed %d records, wrote 160", len(chain))
	}
}

// firstByte is a stand-in for an engine's RedoOnly: it keeps an op's code
// byte only, so a stripped record is unmistakable.
func firstByte(op []byte) []byte { return op[:1] }

// TestArchiveKeepsOnlyChainRecords drives the archiver over a log holding
// every record type, recycling as it goes: the runs hold per-page chain
// records and page images only, every other LSN reads ErrNotArchived —
// from the store and through the log's fallback — and the drop is counted.
// A page's archived chain walk passes over the images between its records.
func TestArchiveKeepsOnlyChainRecords(t *testing.T) {
	m := wal.NewManager(iosim.Instant)
	s := NewStore(iosim.Instant, wal.FirstLSN())
	m.SetArchive(s.NewReader())
	a := New(m, s, Config{SegmentBytes: 512, RedoOnly: firstByte})
	chain := make(map[page.LSN]wal.RecType)
	var dropped []page.LSN
	last := make(map[page.ID]page.LSN)
	links := make(map[page.ID]int)
	appendRec := func(r *wal.Record) {
		linked := r.Type == wal.TypeUpdate || r.Type == wal.TypeCLR || r.Type == wal.TypeFormat
		if linked {
			r.PagePrevLSN = last[r.PageID]
		}
		lsn := m.Append(r)
		if linked {
			last[r.PageID] = lsn
			links[r.PageID]++
		}
		if chainRecord(r.Type) {
			chain[lsn] = r.Type
		} else {
			dropped = append(dropped, lsn)
		}
	}
	recycles := 0
	for round := 0; round < 30; round++ {
		txn := wal.TxnID(round + 1)
		pg := page.ID(round%4 + 1)
		if round < 4 {
			appendRec(&wal.Record{Type: wal.TypeFormat, Txn: txn, PageID: pg, Payload: []byte{1}})
		}
		appendRec(&wal.Record{Type: wal.TypeUpdate, Txn: txn, PageID: pg, Payload: []byte{2, byte(round), 9, 9}})
		appendRec(&wal.Record{Type: wal.TypeImage, PageID: pg, Payload: []byte{6, byte(round)}})
		switch round % 3 {
		case 0:
			appendRec(&wal.Record{Type: wal.TypeCommit, Txn: txn})
		case 1:
			appendRec(&wal.Record{Type: wal.TypeCLR, Txn: txn, PageID: pg, Payload: []byte{3}})
			appendRec(&wal.Record{Type: wal.TypeAbort, Txn: txn})
		default:
			appendRec(&wal.Record{Type: wal.TypeSysCommit, Txn: txn})
		}
		appendRec(&wal.Record{Type: wal.TypePRIUpdate, PageID: pg, Payload: []byte{5}})
		appendRec(&wal.Record{Type: wal.TypeCheckpointBegin})
		appendRec(&wal.Record{Type: wal.TypeCheckpointEnd, Payload: make([]byte, 64)})
		m.FlushAll()
		a.SetCheckpointHorizon(m.FlushedLSN())
		before := m.TruncatedLSN()
		if err := a.Step(true); err != nil {
			t.Fatal(err)
		}
		if m.TruncatedLSN() > before {
			recycles++
		}
	}
	if recycles < 20 || m.TruncatedLSN() != m.FlushedLSN() {
		t.Fatalf("%d recycles, base %d of flushed %d", recycles, m.TruncatedLSN(), m.FlushedLSN())
	}
	stored := 0
	for _, run := range s.runs {
		for _, e := range run.byPage {
			var rec wal.Record
			if err := run.decode(e, &rec); err != nil {
				t.Fatal(err)
			}
			if !chainRecord(rec.Type) || chain[rec.LSN] != rec.Type {
				t.Fatalf("run [%d,%d) holds a %v record at %d", run.lo, run.hi, rec.Type, rec.LSN)
			}
			stored++
		}
	}
	if stored != len(chain) {
		t.Fatalf("runs hold %d records, the log had %d chain records", stored, len(chain))
	}
	for _, lsn := range dropped {
		if _, err := s.ReadRecord(lsn); !errors.Is(err, ErrNotArchived) {
			t.Fatalf("ReadRecord(%d) of a dropped record: err = %v, want ErrNotArchived", lsn, err)
		}
		if _, err := m.Read(lsn); !errors.Is(err, ErrNotArchived) {
			t.Fatalf("log Read(%d) of a dropped record: err = %v, want ErrNotArchived", lsn, err)
		}
	}
	for lsn, typ := range chain {
		rec, err := m.Read(lsn)
		if err != nil || rec.Type != typ {
			t.Fatalf("log Read(%d): %v %v, want the archived %v", lsn, rec, err, typ)
		}
	}
	if st := s.Stats(); st.RecordsDropped != int64(len(dropped)) || st.Records != int64(len(chain)) {
		t.Errorf("stats: %d dropped / %d retained, want %d / %d", st.RecordsDropped, st.Records, len(dropped), len(chain))
	}
	for pg, head := range last {
		walked, err := m.WalkPageChain(head, page.ZeroLSN, pg)
		if err != nil || len(walked) != links[pg] {
			t.Fatalf("page %d: walked %d records, %v; its chain has %d", pg, len(walked), err, links[pg])
		}
		for _, rec := range walked {
			if rec.Type == wal.TypeImage {
				t.Fatalf("page %d: the chain walk stepped onto the image at %d", pg, rec.LSN)
			}
		}
	}
}

// TestCommittedUpdatesStoredRedoOnly: an update is stored redo-only exactly
// when its own transaction's commit or sys-commit follows it in the same
// batch. Updates whose commit lands in a later run, of aborted
// transactions, of a transaction id's aborted earlier holder, and CLRs stay
// whole.
func TestCommittedUpdatesStoredRedoOnly(t *testing.T) {
	m := wal.NewManager(iosim.Instant)
	last := page.ZeroLSN
	update := func(txn wal.TxnID, typ wal.RecType) page.LSN {
		last = m.Append(&wal.Record{Type: typ, Txn: txn, PageID: 1, PagePrevLSN: last, Payload: []byte{7, 1, 2, 3, 4, 5}})
		return last
	}
	end := func(txn wal.TxnID, typ wal.RecType) { m.Append(&wal.Record{Type: typ, Txn: txn}) }

	committed := update(1, wal.TypeUpdate)
	end(1, wal.TypeCommit)
	sys := update(2|1<<63, wal.TypeUpdate)
	end(2|1<<63, wal.TypeSysCommit)
	aborted := update(3, wal.TypeUpdate)
	clr := update(3, wal.TypeCLR)
	end(3, wal.TypeAbort)
	loser := update(4, wal.TypeUpdate) // id 4's first holder rolls back ...
	end(4, wal.TypeAbort)
	reused := update(4, wal.TypeUpdate) // ... its second commits
	end(4, wal.TypeCommit)
	later := update(5, wal.TypeUpdate) // commits in the next batch
	cut := m.EndLSN()
	end(5, wal.TypeCommit)
	m.FlushAll()
	recs := collect(t, m, wal.FirstLSN(), m.FlushedLSN())

	s := NewStore(iosim.Instant, wal.FirstLSN())
	n := 0
	for n < len(recs) && recs[n].LSN < cut {
		n++
	}
	if err := s.AppendRun(recs[:n], firstByte); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRun(recs[n:], firstByte); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		lsn   page.LSN
		whole bool
	}{
		{"committed in the batch", committed, false},
		{"sys-committed in the batch", sys, false},
		{"aborted", aborted, true},
		{"CLR", clr, true},
		{"aborted earlier holder of a reused id", loser, true},
		{"committed later holder of a reused id", reused, false},
		{"committed in a later run", later, true},
	} {
		rec, err := s.ReadRecord(c.lsn)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := len(rec.Payload) == 6; got != c.whole {
			t.Errorf("%s: stored payload %x, whole = %v, want %v", c.name, rec.Payload, got, c.whole)
		}
	}
	if st := s.Stats(); st.UndoBytesStripped != 3*5 {
		t.Errorf("UndoBytesStripped = %d, want 15", st.UndoBytesStripped)
	}
}

// TestBatchWithoutChainRecordsAdvancesCursor: a collected batch that holds
// no chain record writes no run, yet moves ArchivedUpTo to its end, so the
// live log recycles past it and the next run continues exactly there.
func TestBatchWithoutChainRecordsAdvancesCursor(t *testing.T) {
	m := wal.NewManager(iosim.Instant)
	n := 0
	for i := 0; i < 40; i++ {
		m.Append(&wal.Record{Type: wal.TypeCommit, Txn: wal.TxnID(i + 1)})
		m.Append(&wal.Record{Type: wal.TypePRIUpdate, PageID: 3, Payload: make([]byte, 24)})
		n += 2
	}
	m.FlushAll()
	s := NewStore(iosim.Instant, wal.FirstLSN())
	m.SetArchive(s.NewReader())
	a := New(m, s, Config{SegmentBytes: 256})
	a.SetCheckpointHorizon(m.FlushedLSN())
	if err := a.Step(true); err != nil {
		t.Fatal(err)
	}
	flushed := m.FlushedLSN()
	if got := s.ArchivedUpTo(); got != flushed {
		t.Fatalf("archived up to %d, want the flushed end %d", got, flushed)
	}
	if m.TruncatedLSN() != flushed {
		t.Fatalf("live log recycled to %d, want %d", m.TruncatedLSN(), flushed)
	}
	if st := s.Stats(); st.Runs != 0 || st.RunsWritten != 0 || st.RecordsDropped != int64(n) {
		t.Fatalf("stats %+v: want no run and %d records dropped", st, n)
	}
	lsn := m.Append(&wal.Record{Type: wal.TypeFormat, Txn: 99, PageID: 3, Payload: []byte{1}})
	m.FlushAll()
	a.SetCheckpointHorizon(m.FlushedLSN())
	if err := a.Step(true); err != nil {
		t.Fatal(err)
	}
	if rec, err := m.Read(lsn); err != nil || rec.Type != wal.TypeFormat {
		t.Fatalf("chain record after the empty batches: %v %v", rec, err)
	}
	if run := s.runs[0]; run.lo != flushed {
		t.Fatalf("next run starts at %d, want %d", run.lo, flushed)
	}
}

// TestWalkChainAliasesRacingReleaseAndAppend: WalkChain's records alias the
// runs they were decoded from. Replays racing AppendRun and ReleaseBelow
// return a page's whole chain down to the base they ask for — every record
// the page's, newest first, with the payload written for it — or
// ErrReleased, never a wrong page; and a chain kept after its runs were
// released still reads what was written.
func TestWalkChainAliasesRacingReleaseAndAppend(t *testing.T) {
	const pages, rounds, lag, readers = 8, 300, 20, 4
	payload := func(pg page.ID, lsn page.LSN) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, uint64(pg)), uint64(lsn))
	}
	// check holds chain to the page's records want, oldest first.
	check := func(chain []*wal.Record, want []page.LSN, pg page.ID) error {
		if len(chain) != len(want) {
			return fmt.Errorf("page %d: chain of %d records, want %d", pg, len(chain), len(want))
		}
		for k, rec := range chain {
			lsn := want[len(want)-1-k]
			if rec.LSN != lsn || rec.PageID != pg || !bytes.Equal(rec.Payload, payload(pg, lsn)) {
				return fmt.Errorf("page %d chain[%d]: LSN %d of page %d, payload %x; want LSN %d",
					pg, k, rec.LSN, rec.PageID, rec.Payload, lsn)
			}
			if cap(rec.Payload) != len(rec.Payload) {
				return fmt.Errorf("page %d chain[%d]: payload can be appended into the run", pg, k)
			}
		}
		return nil
	}

	s := NewStore(iosim.Instant, wal.FirstLSN())
	var mu sync.Mutex
	hist := make([][]page.LSN, pages+1) // hist[pg]: its archived chain, oldest first
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		next := wal.FirstLSN()
		var starts []page.LSN
		for r := 0; r < rounds; r++ {
			starts = append(starts, next)
			recs := make([]*wal.Record, 0, pages)
			for pg := page.ID(1); pg <= pages; pg++ {
				prev := page.ZeroLSN
				if h := hist[pg]; len(h) > 0 { // only this goroutine writes hist
					prev = h[len(h)-1]
				}
				rec := &wal.Record{LSN: next, Type: wal.TypeUpdate, Txn: 1,
					PageID: pg, PagePrevLSN: prev, Payload: payload(pg, next)}
				next += page.LSN(wal.RecordSize(rec))
				recs = append(recs, rec)
			}
			if err := s.AppendRun(recs, nil); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			for _, rec := range recs {
				hist[rec.PageID] = append(hist[rec.PageID], rec.LSN)
			}
			mu.Unlock()
			if r >= lag {
				s.ReleaseBelow(starts[r-lag])
			}
		}
	}()

	type keptChain struct {
		chain []*wal.Record
		want  []page.LSN
		pg    page.ID
	}
	var whole, released atomic.Int64
	kept := make([][]keptChain, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			// Each reader walks while the writer runs and 64 times more
			// once it is done, so both outcomes are reached however the
			// goroutines are scheduled.
			for i, after := 0, 0; after < 64; i++ {
				if done.Load() {
					after++
				}
				pg := page.ID(1 + rng.Intn(pages))
				mu.Lock()
				h := hist[pg]
				mu.Unlock()
				if len(h) == 0 {
					continue
				}
				// Half the walks reach far back, half stay near the head.
				b := rng.Intn(len(h))
				if i%2 == 0 {
					b = len(h) - 1 - rng.Intn(min(len(h), lag))
				}
				stopAfter := page.ZeroLSN
				if b > 0 {
					stopAfter = h[b-1]
				}
				chain, err := s.WalkChain(h[len(h)-1], stopAfter, pg)
				if errors.Is(err, ErrReleased) {
					released.Add(1)
					continue
				}
				if err == nil {
					err = check(chain, h[b:], pg)
				}
				if err != nil {
					t.Error(err)
					return
				}
				whole.Add(1)
				if i%16 == 0 {
					kept[w] = append(kept[w], keptChain{chain, h[b:], pg})
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if whole.Load() == 0 || released.Load() == 0 {
		t.Fatalf("%d whole chains, %d released walks: want both outcomes", whole.Load(), released.Load())
	}
	if st := s.Stats(); st.ReleasedRuns == 0 {
		t.Fatalf("no run was released: %+v", st)
	}
	for _, ks := range kept {
		for _, k := range ks {
			if err := check(k.chain, k.want, k.pg); err != nil {
				t.Fatalf("kept chain after release: %v", err)
			}
		}
	}
}

// TestWalkChainAliasesStillVerifyChecksums: decoding in place still checks
// every record. A byte flipped anywhere in a run's record past its length
// word fails the chain walk and the point read over it with
// wal.ErrCorruptRec; restored, both read clean again.
func TestWalkChainAliasesStillVerifyChecksums(t *testing.T) {
	_, recs := buildLog(t, []page.ID{2, 3}, 4)
	s := NewStore(iosim.Instant, wal.FirstLSN())
	if err := s.AppendRun(recs, nil); err != nil {
		t.Fatal(err)
	}
	run := s.runs[0]
	walk := func(e entry) error {
		_, err := s.WalkChain(headOf(t, recs, e.pg), page.ZeroLSN, e.pg)
		return err
	}
	for _, e := range run.byPage {
		for i := e.off + 4; i < e.off+e.size; i++ {
			run.data[i] ^= 0x10
			werr := walk(e)
			_, rerr := s.ReadRecord(e.lsn)
			run.data[i] ^= 0x10
			if !errors.Is(werr, wal.ErrCorruptRec) || !errors.Is(rerr, wal.ErrCorruptRec) {
				t.Fatalf("byte %d of the record at %d flipped: walk %v, read %v; want ErrCorruptRec",
					i-e.off, e.lsn, werr, rerr)
			}
		}
		if err := walk(e); err != nil {
			t.Fatalf("page %d after restoring its bytes: %v", e.pg, err)
		}
	}
}
