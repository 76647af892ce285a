package wal

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iosim"
	"repro/internal/page"
)

// TestParallelAppendPublishesAll hammers Append from many goroutines and
// verifies the published log is a contiguous sequence of intact records.
func TestParallelAppendPublishesAll(t *testing.T) {
	m := newTestLog()
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := []byte{byte(w), 0, 0}
			for i := 0; i < perWorker; i++ {
				payload[1], payload[2] = byte(i), byte(i>>8)
				m.Append(&Record{Type: TypeUpdate, Txn: TxnID(w), Payload: payload})
			}
		}(w)
	}
	wg.Wait()

	counts := make(map[TxnID]int)
	var pos page.LSN = firstLSN
	err := m.Scan(FirstLSN(), func(r *Record) bool {
		if r.LSN != pos {
			t.Errorf("record at %d, expected contiguous %d", r.LSN, pos)
			return false
		}
		if len(r.Payload) != 3 || r.Payload[0] != byte(r.Txn) {
			t.Errorf("payload %v does not match txn %d", r.Payload, r.Txn)
			return false
		}
		counts[r.Txn]++
		pos = r.LSN + page.LSN(RecordSize(r))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if pos != m.EndLSN() {
		t.Errorf("scan ended at %d, want %d", pos, m.EndLSN())
	}
	for w := 0; w < workers; w++ {
		if counts[TxnID(w)] != perWorker {
			t.Errorf("worker %d published %d records, want %d", w, counts[TxnID(w)], perWorker)
		}
	}
	if s := m.Stats(); s.Appends != workers*perWorker {
		t.Errorf("appends = %d, want %d", s.Appends, workers*perWorker)
	}
}

// TestChunkSpanningRecords appends records large enough to straddle
// several chunk seams and verifies the gather path round-trips them.
func TestChunkSpanningRecords(t *testing.T) {
	m := newTestLog()
	big := make([]byte, 300<<10) // each spans several 64 KiB chunks
	var lsns []page.LSN
	for i := 0; i < 8; i++ {
		for j := range big {
			big[j] = byte(i + j)
		}
		lsns = append(lsns, m.Append(&Record{Type: TypeUpdate, Txn: TxnID(i), Payload: big}))
	}
	for i, lsn := range lsns {
		rec, err := m.Read(lsn)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if len(rec.Payload) != len(big) {
			t.Fatalf("record %d payload %d bytes, want %d", i, len(rec.Payload), len(big))
		}
		for j := 0; j < len(big); j += 7919 {
			if rec.Payload[j] != byte(i+j) {
				t.Fatalf("record %d payload corrupt at %d", i, j)
			}
		}
	}
	m.FlushAll()
	m.Crash()
	if _, err := TakeOver(m).Read(lsns[len(lsns)-1]); err != nil {
		t.Fatalf("flushed spanning record lost in crash: %v", err)
	}
}

// TestScanIsAllocationFree verifies the zero-copy decode: scanning a log
// whose records sit within one chunk allocates nothing per record.
func TestScanIsAllocationFree(t *testing.T) {
	m := newTestLog()
	payload := make([]byte, 64)
	for i := 0; i < 200; i++ {
		m.Append(&Record{Type: TypeUpdate, Txn: TxnID(i), PageID: 3, Payload: payload})
	}
	count := 0
	fn := func(r *Record) bool { count++; return true }
	allocs := testing.AllocsPerRun(20, func() {
		count = 0
		if err := m.Scan(FirstLSN(), fn); err != nil {
			t.Fatal(err)
		}
	})
	if count != 200 {
		t.Fatalf("scanned %d records, want 200", count)
	}
	// The one shared Record may escape to the callback once per pass;
	// nothing may be allocated per record.
	if allocs > 1 {
		t.Errorf("Scan allocates %.1f objects per 200-record pass, want ≤1", allocs)
	}
}

// TestReadCopiesPayload verifies Read returns an independent copy:
// mutating it leaves the log's record, and its checksum, intact.
func TestReadCopiesPayload(t *testing.T) {
	m := newTestLog()
	lsn := m.Append(&Record{Type: TypeUpdate, Txn: 1, Payload: []byte("shared bytes")})
	copied, err := m.Read(lsn)
	if err != nil {
		t.Fatal(err)
	}
	copied.Payload[0] ^= 0xFF
	again, err := m.Read(lsn)
	if err != nil {
		t.Fatalf("mutating a Read copy broke the log's record: %v", err)
	}
	if !bytes.Equal(again.Payload, []byte("shared bytes")) {
		t.Errorf("Read copy aliases the log: %q", again.Payload)
	}
}

// TestGroupCommitCoalesces pins the leader protocol: committers that queue
// on flushMu while a flush is in progress (here: while the test holds the
// mutex) are all served by the one flush the first of them leads.
func TestGroupCommitCoalesces(t *testing.T) {
	m := newTestLog()
	const committers = 8
	commitSize := page.LSN(RecordSize(&Record{Type: TypeCommit}))
	published := m.EndLSN() + committers*commitSize

	m.flushMu.Lock()
	var wg sync.WaitGroup
	errs := make([]error, committers)
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn := m.Append(&Record{Type: TypeCommit, Txn: TxnID(i)})
			errs[i] = m.ForceForCommit(lsn)
		}(i)
	}
	for m.EndLSN() != published {
		runtime.Gosched()
	}
	m.flushMu.Unlock()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Errorf("committer %d: %v", i, err)
		}
	}
	s := m.Stats()
	if s.Flushes != 1 || s.ForcedCommits != 1 || s.GroupCommitBatches != 1 {
		t.Errorf("flushes/forced/batches = %d/%d/%d, want 1/1/1", s.Flushes, s.ForcedCommits, s.GroupCommitBatches)
	}
	if s.GroupCommitWaiters != committers {
		t.Errorf("waiters = %d, want %d", s.GroupCommitWaiters, committers)
	}
	if m.TailSize() != 0 {
		t.Errorf("tail = %d after all commits forced", m.TailSize())
	}
}

// logGoroutines counts the goroutines running this package's code, tests
// aside: the only ones a commit could have started. A goroutine an earlier
// test left behind may exit mid-count.
func logGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
		if bytes.Contains(g, []byte("repro/internal/wal.")) && !bytes.Contains(g, []byte("repro/internal/wal.Test")) {
			n++
		}
	}
	return n
}

// TestCommitAfterCloseStartsNoGoroutine: Close stops nothing because the log
// runs nothing — a commit after Close, on the incarnation that takes the log
// over after a crash, is durable, and a thousand lone commits each lead their
// own flush without a goroutine being started for them.
func TestCommitAfterCloseStartsNoGoroutine(t *testing.T) {
	m := newTestLog()
	m.Close()
	m.Crash() // nothing unflushed
	m = TakeOver(m)
	before := logGoroutines()
	const commits = 1000
	for i := 0; i < commits; i++ {
		lsn := m.Append(&Record{Type: TypeCommit, Txn: TxnID(i)})
		if err := m.ForceForCommit(lsn); err != nil {
			t.Fatalf("commit %d after Close: %v", i, err)
		}
		if m.FlushedLSN() <= lsn {
			t.Fatalf("commit %d acknowledged at flushed=%d, record at %d", i, m.FlushedLSN(), lsn)
		}
	}
	if after := logGoroutines(); after != before {
		t.Errorf("goroutines %d -> %d across %d commits", before, after, commits)
	}
	if s := m.Stats(); s.GroupCommitBatches != commits || s.GroupCommitWaiters != commits {
		t.Errorf("batches/waiters = %d/%d, want %d/%d (a lone commit leads its own flush)",
			s.GroupCommitBatches, s.GroupCommitWaiters, commits, commits)
	}
}

// TestCommitLostInCrash: a commit whose record the crash left above the
// sealed stable prefix must report ErrCommitLost, never pretend durability;
// the next incarnation commits at the sealed boundary.
func TestCommitLostInCrash(t *testing.T) {
	m := newTestLog()
	lsn := m.Append(&Record{Type: TypeCommit, Txn: 1})
	m.Crash() // unflushed: the record does not survive
	if err := m.ForceForCommit(lsn); !errors.Is(err, ErrCommitLost) {
		t.Errorf("force after crash = %v, want ErrCommitLost", err)
	}
	s := TakeOver(m)
	lsn2 := s.Append(&Record{Type: TypeCommit, Txn: 2})
	if lsn2 != lsn {
		t.Errorf("next incarnation's first record at %d, want the sealed boundary %d", lsn2, lsn)
	}
	if err := s.ForceForCommit(lsn2); err != nil {
		t.Errorf("post-crash commit: %v", err)
	}
}

// TestCommitFlushedBeforeCrashIsDurable: a commit record that reached
// stable storage before the crash (e.g. via another commit's flush) reports
// durable although its own force comes after the seal — restart replays it,
// and telling the caller "lost" would invite a double-apply. A commit
// record appended after the seal is lost, whatever is flushed after it.
func TestCommitFlushedBeforeCrashIsDurable(t *testing.T) {
	m := newTestLog()
	lsn := m.Append(&Record{Type: TypeCommit, Txn: 1})
	m.FlushAll() // another path made it stable before the crash
	m.Crash()
	if err := m.ForceForCommit(lsn); err != nil {
		t.Errorf("force of pre-crash-flushed commit = %v, want nil", err)
	}
	late := m.Append(&Record{Type: TypeCommit, Txn: 2})
	m.FlushAll()
	if err := m.ForceForCommit(late); !errors.Is(err, ErrCommitLost) {
		t.Errorf("commit appended after the seal = %v, want ErrCommitLost", err)
	}
	if rec, err := TakeOver(m).Read(lsn); err != nil || rec.Txn != 1 {
		t.Errorf("durable commit record in the next incarnation: %+v, %v", rec, err)
	}
}

// TestAppendAfterSealNeverReachesSuccessor: a transaction of the failed
// incarnation keeps appending to the log it began on. Its records publish
// there — its own rollback could read them — but never become stable, and
// the next incarnation, which hands out the same LSNs, holds none of them.
func TestAppendAfterSealNeverReachesSuccessor(t *testing.T) {
	m := newTestLog()
	pre := m.Append(&Record{Type: TypeUpdate, Txn: 1, PageID: 5, Payload: []byte("pre")})
	m.FlushAll()
	m.Crash()
	s := TakeOver(m)
	zombie := m.Append(&Record{Type: TypeUpdate, Txn: 1, PageID: 5, PagePrevLSN: pre, Payload: []byte("zombie")})
	if err := m.Flush(zombie); !errors.Is(err, ErrSealed) {
		t.Fatalf("flush of a record appended after the seal = %v, want ErrSealed", err)
	}
	live := s.Append(&Record{Type: TypeUpdate, Txn: 2, PageID: 6, Payload: []byte("post")})
	if live != zombie {
		t.Fatalf("next incarnation appends at %d, want the sealed boundary %d", live, zombie)
	}
	if rec, err := m.Read(zombie); err != nil || string(rec.Payload) != "zombie" {
		t.Fatalf("the failed incarnation lost its own record: %+v, %v", rec, err)
	}
	var got []string
	if err := s.Scan(FirstLSN(), func(r *Record) bool {
		got = append(got, string(r.Payload))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "pre" || got[1] != "post" {
		t.Fatalf("next incarnation holds %q, want [pre post]", got)
	}
}

// TestTakeOverOwnsTheSurvivingBytes: the next incarnation reads exactly the
// stable prefix, the recycling boundary and the master the seal left, on
// the failed one's device clock and counters; from then on the two write
// nothing the other reads. The seal here falls mid-chunk past the first
// seam: the chunk below it is shared, the one it falls in is copied.
func TestTakeOverOwnsTheSurvivingBytes(t *testing.T) {
	m := newTestLog()
	big := func(tag byte) []byte { return bytes.Repeat([]byte{tag}, 300<<10) }
	var lsns []page.LSN
	for i := 0; i < 6; i++ {
		lsns = append(lsns, m.Append(&Record{Type: TypeUpdate, Txn: 1, PageID: 2, Payload: big(byte(i))}))
	}
	m.Flush(lsns[4])
	m.SetMaster(lsns[2])
	m.Recycle(lsns[1])
	m.Crash()
	s := TakeOver(m)
	if s.FlushedLSN() != lsns[5] || s.EndLSN() != lsns[5] || s.Master() != lsns[2] || s.TruncatedLSN() != lsns[1] {
		t.Fatalf("next incarnation: flushed %d end %d master %d truncated %d; want %d %d %d %d",
			s.FlushedLSN(), s.EndLSN(), s.Master(), s.TruncatedLSN(), lsns[5], lsns[5], lsns[2], lsns[1])
	}
	if s.Clock() != m.Clock() {
		t.Fatal("the next incarnation runs on another log device clock")
	}
	// Both incarnations write past the seal at once.
	zombie := m.Append(&Record{Type: TypeUpdate, Txn: 1, PageID: 2, Payload: big('z')})
	mine := s.Append(&Record{Type: TypeUpdate, Txn: 2, PageID: 3, Payload: big('s')})
	check := func(name string, l *Manager, lsn page.LSN, tag byte) {
		t.Helper()
		rec, err := l.Read(lsn)
		if err != nil || !bytes.Equal(rec.Payload, big(tag)) {
			t.Fatalf("%s record at %d: err %v, payload intact %v", name, lsn, err, err == nil && bytes.Equal(rec.Payload, big(tag)))
		}
	}
	for i := 1; i < 5; i++ {
		check("surviving", s, lsns[i], byte(i))
	}
	check("failed incarnation's unflushed", m, lsns[5], 5)
	check("failed incarnation's late", m, zombie, 'z')
	check("next incarnation's", s, mine, 's')
	if _, err := s.Read(lsns[0]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("read below the inherited boundary = %v, want ErrTruncated", err)
	}
	if got := s.Stats().Appends; got != 8 {
		t.Fatalf("appends = %d across both incarnations, want 8", got)
	}
}

// TestFlushBoundaryIsO1 sanity-checks the O(1) flush target computation:
// flushing a mid-log record lands exactly on its record boundary without
// covering the next record, regardless of how many unflushed records sit
// before it.
func TestFlushBoundaryIsO1(t *testing.T) {
	m := newTestLog()
	var lsns []page.LSN
	for i := 0; i < 1000; i++ {
		lsns = append(lsns, m.Append(&Record{Type: TypeUpdate, Txn: 1, Payload: []byte{byte(i)}}))
	}
	target := lsns[700]
	m.Flush(target)
	if f := m.FlushedLSN(); f != lsns[701] {
		t.Errorf("flushed = %d, want exactly the boundary %d", f, lsns[701])
	}
	if s := m.Stats(); s.Flushes != 1 {
		t.Errorf("flushes = %d, want 1", s.Flushes)
	}
}

// TestConcurrentAppendCommitCrashScan is the -race stress mix: appenders,
// committers, scanners and a crasher that seals the current incarnation and
// takes it over, again and again. Workers move to the newest incarnation
// between operations, so stragglers keep working on sealed ones. Every scan
// of any incarnation is clean, every commit acknowledged on any incarnation
// is in the last one, and the last one scans cleanly end to end.
func TestConcurrentAppendCommitCrashScan(t *testing.T) {
	var cur atomic.Pointer[Manager]
	cur.Store(NewManagerOpts(Options{Profile: iosim.Instant, GroupCommitWindow: 100 * time.Microsecond}))
	var stop atomic.Bool
	var wg sync.WaitGroup
	var ackMu sync.Mutex
	acked := make(map[page.LSN]TxnID)

	// Appenders.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := make([]byte, 40)
			for !stop.Load() {
				cur.Load().Append(&Record{Type: TypeUpdate, Txn: TxnID(w), PageID: page.ID(w), Payload: payload})
			}
		}(w)
	}
	// Committers: nil and ErrCommitLost are the only acceptable outcomes.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				m := cur.Load()
				id := TxnID(100 + w + 3*i)
				lsn := m.Append(&Record{Type: TypeCommit, Txn: id})
				err := m.ForceForCommit(lsn)
				if err != nil && !errors.Is(err, ErrCommitLost) {
					t.Errorf("committer %d: %v", w, err)
					return
				}
				if err == nil {
					ackMu.Lock()
					acked[lsn] = id
					ackMu.Unlock()
				}
			}
		}(w)
	}
	// Scanner: nothing is ever rolled back or reused, so every scan of any
	// incarnation is clean.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := cur.Load().Scan(FirstLSN(), func(r *Record) bool { return true }); err != nil {
				t.Errorf("scan: %v", err)
				return
			}
		}
	}()
	// Crasher + flusher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			time.Sleep(2 * time.Millisecond)
			m := cur.Load()
			if i%2 == 0 {
				m.FlushAll()
			}
			m.Crash()
			cur.Store(TakeOver(m))
		}
	}()

	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Quiesced: the last incarnation is wholly intact and holds every
	// acknowledged commit.
	final := cur.Load()
	commits := make(map[page.LSN]TxnID)
	var pos page.LSN = firstLSN
	if err := final.Scan(FirstLSN(), func(r *Record) bool {
		if r.Type == TypeCommit {
			commits[r.LSN] = r.Txn
		}
		pos = r.LSN + page.LSN(RecordSize(r))
		return true
	}); err != nil {
		t.Fatalf("final scan: %v", err)
	}
	if pos != final.EndLSN() {
		t.Fatalf("final scan ended at %d, want %d", pos, final.EndLSN())
	}
	if len(acked) == 0 {
		t.Fatal("no commit was acknowledged")
	}
	for lsn, id := range acked {
		if commits[lsn] != id {
			t.Errorf("commit of txn %d acknowledged at %d; the last incarnation holds txn %d there", id, lsn, commits[lsn])
		}
	}
}

// TestParallelAppendBatchInterleaved drives single appends and batches
// concurrently and verifies the log stays a seamless sequence of valid
// records (batches land contiguously; nothing tears or interleaves inside
// a batch).
func TestParallelAppendBatchInterleaved(t *testing.T) {
	m := NewManager(iosim.Instant)
	const (
		workers        = 8
		batchesEach    = 50
		recordsPerBtch = 7
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batchesEach; i++ {
				if i%2 == 0 {
					recs := make([]*Record, recordsPerBtch)
					for j := range recs {
						// Tag batch membership so the scan can verify
						// contiguity: payload = worker, batch, index.
						recs[j] = &Record{
							Type:    TypePRIUpdate,
							PageID:  page.ID(w + 1),
							Payload: []byte{byte(w), byte(i), byte(j)},
						}
					}
					m.AppendBatch(recs)
				} else {
					m.Append(&Record{Type: TypeUpdate, Txn: TxnID(w + 1), Payload: []byte{byte(w), byte(i)}})
				}
			}
		}(w)
	}
	wg.Wait()
	var total int
	lastIdx := make(map[int]int)      // worker -> index within current batch
	lastLSN := make(map[int]page.LSN) // worker -> LSN of previous batch record
	batchRecSize := page.LSN(RecordSize(&Record{Payload: []byte{0, 0, 0}}))
	if err := m.Scan(FirstLSN(), func(rec *Record) bool {
		total++
		if rec.Type == TypePRIUpdate {
			w := int(rec.Payload[0])
			j := int(rec.Payload[2])
			if j != 0 {
				if lastIdx[w] != j-1 {
					t.Errorf("batch of worker %d interleaved: index %d follows %d", w, j, lastIdx[w])
					return false
				}
				if rec.LSN != lastLSN[w]+batchRecSize {
					t.Errorf("batch of worker %d not contiguous: record %d at LSN %d, predecessor at %d",
						w, j, rec.LSN, lastLSN[w])
					return false
				}
			}
			lastIdx[w] = j
			lastLSN[w] = rec.LSN
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	wantBatches := workers * (batchesEach / 2)
	want := wantBatches*recordsPerBtch + workers*(batchesEach/2)
	if total != want {
		t.Fatalf("scanned %d records, want %d", total, want)
	}
	if got := m.Stats().BatchAppends; got != int64(wantBatches) {
		t.Fatalf("BatchAppends = %d, want %d", got, wantBatches)
	}
}
