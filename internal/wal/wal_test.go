package wal

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/iosim"
	"repro/internal/page"
)

func newTestLog() *Manager { return NewManager(iosim.Instant) }

func TestAppendAssignsMonotonicLSNs(t *testing.T) {
	m := newTestLog()
	var last page.LSN
	for i := 0; i < 10; i++ {
		lsn := m.Append(&Record{Type: TypeUpdate, Txn: 1, Payload: []byte{byte(i)}})
		if lsn <= last {
			t.Fatalf("LSN %d not greater than previous %d", lsn, last)
		}
		last = lsn
	}
	if m.EndLSN() <= last {
		t.Error("EndLSN should exceed last record LSN")
	}
}

func TestFirstRecordAtFirstLSN(t *testing.T) {
	m := newTestLog()
	lsn := m.Append(&Record{Type: TypeCommit, Txn: 1})
	if lsn != FirstLSN() {
		t.Errorf("first record at %d, want %d", lsn, FirstLSN())
	}
	if lsn == page.ZeroLSN {
		t.Error("first LSN must not be ZeroLSN")
	}
}

func TestReadRoundTrip(t *testing.T) {
	m := newTestLog()
	want := &Record{
		Type:        TypeUpdate,
		Txn:         42,
		PrevLSN:     100,
		PageID:      7,
		PagePrevLSN: 55,
		UndoNext:    33,
		Payload:     []byte("redo+undo bytes"),
	}
	lsn := m.Append(want)
	got, err := m.Read(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != lsn || got.Type != want.Type || got.Txn != want.Txn ||
		got.PrevLSN != want.PrevLSN || got.PageID != want.PageID ||
		got.PagePrevLSN != want.PagePrevLSN || got.UndoNext != want.UndoNext ||
		!bytes.Equal(got.Payload, want.Payload) {
		t.Errorf("round trip mismatch: got %+v want %+v", got, want)
	}
}

func TestReadBadLSN(t *testing.T) {
	m := newTestLog()
	m.Append(&Record{Type: TypeCommit, Txn: 1})
	if _, err := m.Read(page.LSN(3)); !errors.Is(err, ErrBadLSN) {
		t.Errorf("read below firstLSN: %v", err)
	}
	if _, err := m.Read(m.EndLSN()); !errors.Is(err, ErrBadLSN) {
		t.Errorf("read at end: %v", err)
	}
	// An LSN in the middle of a record fails the CRC or bounds check.
	if _, err := m.Read(FirstLSN() + 5); err == nil {
		t.Error("read of mid-record offset succeeded")
	}
}

func TestFlushAndCrashSemantics(t *testing.T) {
	m := newTestLog()
	l1 := m.Append(&Record{Type: TypeUpdate, Txn: 1, Payload: []byte("a")})
	l2 := m.Append(&Record{Type: TypeUpdate, Txn: 1, Payload: []byte("b")})
	l3 := m.Append(&Record{Type: TypeUpdate, Txn: 1, Payload: []byte("c")})
	m.Flush(l2)
	if m.FlushedLSN() <= l2 {
		t.Fatalf("flushed %d, want past %d", m.FlushedLSN(), l2)
	}
	if m.FlushedLSN() > l3 {
		t.Fatalf("flushed %d, must not cover record at %d", m.FlushedLSN(), l3)
	}
	m.Crash()
	// The sealed log makes nothing stable any more.
	if err := m.Flush(l3); !errors.Is(err, ErrSealed) {
		t.Errorf("flush above the seal = %v, want ErrSealed", err)
	}
	if err := m.Flush(l2); err != nil {
		t.Errorf("flush of a record the seal found stable = %v", err)
	}
	// l1, l2 survive into the next incarnation; l3 is gone.
	s := TakeOver(m)
	if _, err := s.Read(l1); err != nil {
		t.Errorf("flushed record lost in crash: %v", err)
	}
	if _, err := s.Read(l2); err != nil {
		t.Errorf("flushed record lost in crash: %v", err)
	}
	if _, err := s.Read(l3); err == nil {
		t.Error("unflushed record survived crash")
	}
	// Appends continue at the sealed position.
	l4 := s.Append(&Record{Type: TypeUpdate, Txn: 2, Payload: []byte("d")})
	if l4 != l3 {
		t.Errorf("post-crash append at %d, want %d", l4, l3)
	}
}

func TestFlushAllAndTailSize(t *testing.T) {
	m := newTestLog()
	m.Append(&Record{Type: TypeUpdate, Txn: 1, Payload: make([]byte, 100)})
	if m.TailSize() == 0 {
		t.Fatal("tail should be nonzero before flush")
	}
	m.FlushAll()
	if m.TailSize() != 0 {
		t.Errorf("tail = %d after FlushAll", m.TailSize())
	}
	m.Crash()
	if TakeOver(m).Size() == 0 {
		t.Error("flushed log vanished in crash")
	}
}

func TestFlushIdempotent(t *testing.T) {
	m := newTestLog()
	l1 := m.Append(&Record{Type: TypeCommit, Txn: 1})
	m.Flush(l1)
	f := m.FlushedLSN()
	m.Flush(l1)
	if m.FlushedLSN() != f {
		t.Error("second flush moved the flushed LSN")
	}
	s := m.Stats()
	if s.Flushes != 1 {
		t.Errorf("flushes = %d, want 1 (no-op flush must not count)", s.Flushes)
	}
}

func TestForceForCommitCountsOnlyRealForces(t *testing.T) {
	m := newTestLog()
	l1 := m.Append(&Record{Type: TypeCommit, Txn: 1})
	m.ForceForCommit(l1)
	m.ForceForCommit(l1) // already stable: no force
	s := m.Stats()
	if s.ForcedCommits != 1 {
		t.Errorf("forced commits = %d, want 1", s.ForcedCommits)
	}
}

func TestScanVisitsAllInOrder(t *testing.T) {
	m := newTestLog()
	var want []page.LSN
	for i := 0; i < 25; i++ {
		want = append(want, m.Append(&Record{Type: TypeUpdate, Txn: TxnID(i), Payload: []byte{byte(i)}}))
	}
	var got []page.LSN
	if err := m.Scan(FirstLSN(), func(r *Record) bool {
		got = append(got, r.LSN)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d at %d, want %d", i, got[i], want[i])
		}
	}
}

func TestScanFromMidLogAndEarlyStop(t *testing.T) {
	m := newTestLog()
	var lsns []page.LSN
	for i := 0; i < 10; i++ {
		lsns = append(lsns, m.Append(&Record{Type: TypeUpdate, Txn: 1}))
	}
	count := 0
	if err := m.Scan(lsns[5], func(r *Record) bool {
		count++
		return count < 3
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("visited %d, want 3 (early stop)", count)
	}
}

// TestScanBelowTruncationReturnsErrTruncated: the archive keeps chain
// records only, so Scan never reaches into it — a scan that starts below
// the recycling boundary fails before visiting a record, one that starts
// at the boundary reads the live rest, and an AppendRecord encoding reads
// back through DecodeRecordInto unchanged.
func TestScanBelowTruncationReturnsErrTruncated(t *testing.T) {
	m := newTestLog()
	var lsns []page.LSN
	for i := 0; i < 8; i++ {
		lsns = append(lsns, m.Append(&Record{Type: TypeUpdate, Txn: 1, PageID: 2, Payload: []byte{byte(i)}}))
	}
	m.FlushAll()
	m.Recycle(lsns[4])
	visited := 0
	err := m.Scan(FirstLSN(), func(*Record) bool { visited++; return true })
	if !errors.Is(err, ErrTruncated) || visited != 0 {
		t.Fatalf("scan below the boundary: err = %v after %d records, want ErrTruncated before any", err, visited)
	}
	if err := m.Scan(lsns[4], func(*Record) bool { visited++; return true }); err != nil || visited != 4 {
		t.Fatalf("scan from the boundary: %d records, %v; want the 4 live ones", visited, err)
	}
	if _, err := m.Read(lsns[0]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("read below the boundary with no archive: err = %v, want ErrTruncated", err)
	}

	rec, err := m.Read(lsns[5])
	if err != nil {
		t.Fatal(err)
	}
	enc := AppendRecord([]byte("prefix"), rec)
	var got Record
	n, err := DecodeRecordInto(rec.LSN, enc[len("prefix"):], &got)
	if err != nil || n != RecordSize(rec) || got.Type != rec.Type || !bytes.Equal(got.Payload, rec.Payload) {
		t.Fatalf("AppendRecord round trip: %+v (%d bytes, %v), want %+v", &got, n, err, rec)
	}
}

func TestWalkPageChain(t *testing.T) {
	m := newTestLog()
	const pid page.ID = 9
	// Build a chain of 5 updates to page 9 interleaved with noise.
	var chainLSNs []page.LSN
	prev := page.ZeroLSN
	for i := 0; i < 5; i++ {
		m.Append(&Record{Type: TypeUpdate, Txn: 99, PageID: 1000}) // noise
		lsn := m.Append(&Record{
			Type: TypeUpdate, Txn: 1, PageID: pid,
			PagePrevLSN: prev, Payload: []byte{byte(i)},
		})
		chainLSNs = append(chainLSNs, lsn)
		prev = lsn
	}
	// Walk the full chain.
	recs, err := m.WalkPageChain(prev, page.ZeroLSN, pid)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("chain length %d, want 5", len(recs))
	}
	// Newest first.
	for i, r := range recs {
		if r.LSN != chainLSNs[4-i] {
			t.Errorf("chain[%d] = %d, want %d", i, r.LSN, chainLSNs[4-i])
		}
	}
	// Walk a suffix only: stop after the second record.
	recs2, err := m.WalkPageChain(prev, chainLSNs[1], pid)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != 3 {
		t.Errorf("partial chain length %d, want 3", len(recs2))
	}
}

func TestWalkPageChainDetectsWrongPage(t *testing.T) {
	m := newTestLog()
	l1 := m.Append(&Record{Type: TypeUpdate, Txn: 1, PageID: 5})
	// A record for page 6 whose chain pointer wrongly names l1 (page 5).
	l2 := m.Append(&Record{Type: TypeUpdate, Txn: 1, PageID: 6, PagePrevLSN: l1})
	_, err := m.WalkPageChain(l2, page.ZeroLSN, 6)
	if !errors.Is(err, ErrChainBroken) {
		t.Errorf("want ErrChainBroken, got %v", err)
	}
}

func TestMasterRecord(t *testing.T) {
	m := newTestLog()
	if m.Master() != page.ZeroLSN {
		t.Error("fresh log has a master record")
	}
	lsn := m.Append(&Record{Type: TypeCheckpointEnd})
	m.FlushAll()
	m.SetMaster(lsn)
	if m.Master() != lsn {
		t.Errorf("master = %d, want %d", m.Master(), lsn)
	}
	m.Crash()
	if TakeOver(m).Master() != lsn {
		t.Error("master lost in crash despite flushed checkpoint")
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := newTestLog()
	for i := 0; i < 4; i++ {
		m.Append(&Record{Type: TypeUpdate, Txn: 1, Payload: make([]byte, 10)})
	}
	m.FlushAll()
	if _, err := m.Read(FirstLSN()); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Appends != 4 || s.BytesAppended == 0 || s.RecordsRead != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRecTypeStrings(t *testing.T) {
	for ty := TypeInvalid; ty <= TypeCheckpointEnd+1; ty++ {
		if ty.String() == "" {
			t.Errorf("empty name for type %d", ty)
		}
	}
}

// Property: any sequence of appended payloads reads back verbatim via Scan.
func TestQuickAppendScanRoundTrip(t *testing.T) {
	f := func(payloads [][]byte) bool {
		m := newTestLog()
		for i, p := range payloads {
			m.Append(&Record{Type: TypeUpdate, Txn: TxnID(i), Payload: p})
		}
		i := 0
		ok := true
		err := m.Scan(FirstLSN(), func(r *Record) bool {
			if r.Txn != TxnID(i) || !bytes.Equal(r.Payload, payloads[i]) {
				ok = false
				return false
			}
			i++
			return true
		})
		return err == nil && ok && i == len(payloads)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: per-page chains of arbitrary interleavings are fully recovered.
func TestQuickPageChains(t *testing.T) {
	f := func(pageChoices []uint8) bool {
		m := newTestLog()
		last := map[page.ID]page.LSN{}
		count := map[page.ID]int{}
		for _, c := range pageChoices {
			pid := page.ID(c%4) + 1
			lsn := m.Append(&Record{
				Type: TypeUpdate, Txn: 1, PageID: pid, PagePrevLSN: last[pid],
			})
			last[pid] = lsn
			count[pid]++
		}
		for pid, head := range last {
			recs, err := m.WalkPageChain(head, page.ZeroLSN, pid)
			if err != nil || len(recs) != count[pid] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	m := newTestLog()
	payload := make([]byte, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Append(&Record{Type: TypeUpdate, Txn: 1, PageID: 5, Payload: payload})
	}
}

func BenchmarkWalkPageChain100(b *testing.B) {
	m := newTestLog()
	prev := page.ZeroLSN
	for i := 0; i < 100; i++ {
		prev = m.Append(&Record{Type: TypeUpdate, Txn: 1, PageID: 3, PagePrevLSN: prev, Payload: make([]byte, 50)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.WalkPageChain(prev, page.ZeroLSN, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAppendBatchContiguousAndReadable(t *testing.T) {
	m := newTestLog()
	before := m.Append(&Record{Type: TypeUpdate, Txn: 1, Payload: []byte("pre")})
	recs := make([]*Record, 5)
	for i := range recs {
		recs[i] = &Record{
			Type:    TypePRIUpdate,
			PageID:  page.ID(100 + i),
			Payload: bytes.Repeat([]byte{byte(i)}, 10+i),
		}
	}
	first := m.AppendBatch(recs)
	if first == page.ZeroLSN || first <= before {
		t.Fatalf("batch start LSN %d not after %d", first, before)
	}
	// Records are contiguous, individually addressable, and identical on
	// read-back.
	want := first
	for i, rec := range recs {
		if rec.LSN != want {
			t.Fatalf("record %d assigned LSN %d, want %d", i, rec.LSN, want)
		}
		got, err := m.Read(rec.LSN)
		if err != nil {
			t.Fatalf("reading batch record %d: %v", i, err)
		}
		if got.Type != rec.Type || got.PageID != rec.PageID || !bytes.Equal(got.Payload, rec.Payload) {
			t.Fatalf("record %d round-trip mismatch: %+v vs %+v", i, got, rec)
		}
		want += page.LSN(RecordSize(rec))
	}
	if m.EndLSN() != want {
		t.Fatalf("EndLSN %d, want %d", m.EndLSN(), want)
	}
	s := m.Stats()
	if s.BatchAppends != 1 {
		t.Fatalf("BatchAppends = %d, want 1", s.BatchAppends)
	}
	if s.Appends != int64(1+len(recs)) {
		t.Fatalf("Appends = %d, want %d", s.Appends, 1+len(recs))
	}
}

func TestAppendBatchEmpty(t *testing.T) {
	m := newTestLog()
	if lsn := m.AppendBatch(nil); lsn != page.ZeroLSN {
		t.Fatalf("empty batch returned %d, want ZeroLSN", lsn)
	}
	if got := m.Stats().BatchAppends; got != 0 {
		t.Fatalf("empty batch counted: %d", got)
	}
}

func TestAppendBatchScanOrder(t *testing.T) {
	m := newTestLog()
	var want []page.ID
	for round := 0; round < 3; round++ {
		m.Append(&Record{Type: TypeUpdate, Txn: 1, PageID: page.ID(1000 + round)})
		want = append(want, page.ID(1000+round))
		batch := make([]*Record, 4)
		for i := range batch {
			id := page.ID(round*10 + i)
			batch[i] = &Record{Type: TypePRIUpdate, PageID: id}
			want = append(want, id)
		}
		m.AppendBatch(batch)
	}
	var got []page.ID
	if err := m.Scan(FirstLSN(), func(rec *Record) bool {
		got = append(got, rec.PageID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order diverges at %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestRecycleReleasesChunks: the chunks Recycle cuts go back to the
// garbage collector, so a log at rest holds its tail, not spare megabytes.
func TestRecycleReleasesChunks(t *testing.T) {
	m := newTestLog()
	payload := make([]byte, 32<<10)
	for i := 0; i < 200; i++ { // ~6.3 MiB of log
		m.Append(&Record{Type: TypeUpdate, Txn: 1, PageID: 2, Payload: payload})
	}
	m.FlushAll()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	k := m.Recycle(m.FlushedLSN())
	if k < 4 {
		t.Fatalf("Recycle cut %d chunks, want ≥ 4", k)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if dropped := int64(before.HeapAlloc) - int64(after.HeapAlloc); dropped < int64(k)*chunkSize {
		t.Fatalf("recycling %d chunks released %d bytes, want ≥ %d", k, dropped, int64(k)*chunkSize)
	}
}
