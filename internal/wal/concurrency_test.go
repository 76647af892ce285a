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

// TestChunkSpanningRecords appends records large enough to straddle the
// chunk seam and verifies the gather path round-trips them.
func TestChunkSpanningRecords(t *testing.T) {
	m := newTestLog()
	big := make([]byte, 300<<10) // several per 1 MiB chunk; some span seams
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
	if _, err := m.Read(lsns[len(lsns)-1]); err != nil {
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

// TestCommitAfterCloseStartsNoGoroutine: Close stops nothing because the log
// runs nothing — a commit after Close and Crash (Restart reuses the manager)
// is durable, and a thousand lone commits each lead their own flush without
// a goroutine being started for them.
func TestCommitAfterCloseStartsNoGoroutine(t *testing.T) {
	m := newTestLog()
	m.Close()
	m.Crash() // nothing unflushed; epoch bump only
	before := runtime.NumGoroutine()
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
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines %d -> %d across %d commits", before, after, commits)
	}
	if s := m.Stats(); s.GroupCommitBatches != commits || s.GroupCommitWaiters != commits {
		t.Errorf("batches/waiters = %d/%d, want %d/%d (a lone commit leads its own flush)",
			s.GroupCommitBatches, s.GroupCommitWaiters, commits, commits)
	}
}

// TestCommitLostInCrash: a commit whose record vanished with the volatile
// tail must report ErrCommitLost, never pretend durability.
func TestCommitLostInCrash(t *testing.T) {
	m := newTestLog()
	epoch := m.Epoch()
	lsn := m.Append(&Record{Type: TypeCommit, Txn: 1})
	m.Crash() // unflushed: the record vanishes
	if err := m.ForceForCommitSince(lsn, epoch); !errors.Is(err, ErrCommitLost) {
		t.Errorf("force after crash = %v, want ErrCommitLost", err)
	}
	// A commit of a fresh post-crash transaction works.
	lsn2 := m.Append(&Record{Type: TypeCommit, Txn: 2})
	if err := m.ForceForCommit(lsn2); err != nil {
		t.Errorf("post-crash commit: %v", err)
	}
}

// TestCommitFlushedBeforeCrashIsDurable: a commit record that reached
// stable storage before the crash (e.g. via another commit's flush) must
// report durable even though the epoch changed — restart will replay it,
// and telling the caller "lost" would invite a double-apply.
func TestCommitFlushedBeforeCrashIsDurable(t *testing.T) {
	m := newTestLog()
	epoch := m.Epoch()
	lsn := m.Append(&Record{Type: TypeCommit, Txn: 1})
	m.FlushAll() // another path made it stable before the crash
	m.Crash()
	if err := m.ForceForCommitSince(lsn, epoch); err != nil {
		t.Errorf("force of pre-crash-flushed commit = %v, want nil", err)
	}
	// Two crashes ago: conservatively lost.
	lsn2 := m.Append(&Record{Type: TypeCommit, Txn: 2})
	m.FlushAll()
	m.Crash()
	m.Crash()
	if err := m.ForceForCommitSince(lsn2, epoch+1); !errors.Is(err, ErrCommitLost) {
		t.Errorf("two-crashes-ago commit = %v, want conservative ErrCommitLost", err)
	}
}

// TestAppendSinceNeutralizesStaleRecords: appends from a pre-crash epoch
// must not land as live records, and the hole they fill must be inert for
// every scan.
func TestAppendSinceNeutralizesStaleRecords(t *testing.T) {
	m := newTestLog()
	epoch := m.Epoch()
	m.Append(&Record{Type: TypeUpdate, Txn: 1, PageID: 5, Payload: []byte("pre")})
	m.Crash()
	if _, err := m.AppendSince(&Record{Type: TypeUpdate, Txn: 1, PageID: 5, Payload: []byte("zombie")},
		epoch); !errors.Is(err, ErrEpochChanged) {
		t.Fatalf("stale append = %v, want ErrEpochChanged", err)
	}
	live := m.Append(&Record{Type: TypeUpdate, Txn: 2, PageID: 6, Payload: []byte("post")})
	types := []RecType{}
	err := m.Scan(FirstLSN(), func(r *Record) bool {
		types = append(types, r.Type)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// The neutralized hole scans as TypeInvalid with no page linkage.
	if len(types) != 2 || types[0] != TypeInvalid || types[1] != TypeUpdate {
		t.Fatalf("post-crash log types = %v, want [invalid update]", types)
	}
	rec, err := m.Read(live)
	if err != nil || rec.PageID != 6 {
		t.Fatalf("live record after hole: %+v, %v", rec, err)
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
// committers, a crasher, and scanners all running against one log. After
// the dust settles the log must scan cleanly end to end.
func TestConcurrentAppendCommitCrashScan(t *testing.T) {
	m := NewManagerOpts(Options{Profile: iosim.Instant, GroupCommitWindow: 100 * time.Microsecond})
	defer m.Close()
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Appenders.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := make([]byte, 40)
			for !stop.Load() {
				m.Append(&Record{Type: TypeUpdate, Txn: TxnID(w), PageID: page.ID(w), Payload: payload})
			}
		}(w)
	}
	// Committers: nil and ErrCommitLost are the only acceptable outcomes.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				epoch := m.Epoch()
				lsn := m.Append(&Record{Type: TypeCommit, Txn: TxnID(100 + w)})
				if err := m.ForceForCommitSince(lsn, epoch); err != nil && !errors.Is(err, ErrCommitLost) {
					t.Errorf("committer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// Scanner: a scan that races a crash may land mid-record (detected via
	// checksum); any such failure must be a detected decode error, never a
	// torn read of published data.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			err := m.Scan(FirstLSN(), func(r *Record) bool { return true })
			if err != nil && !errors.Is(err, ErrCorruptRec) && !errors.Is(err, ErrTornRecord) && !errors.Is(err, ErrBadLSN) {
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
			if i%2 == 0 {
				m.FlushAll()
			}
			m.Crash()
		}
	}()

	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Quiesced: the log must be wholly intact.
	var pos page.LSN = firstLSN
	if err := m.Scan(FirstLSN(), func(r *Record) bool {
		pos = r.LSN + page.LSN(RecordSize(r))
		return true
	}); err != nil {
		t.Fatalf("final scan: %v", err)
	}
	if pos != m.EndLSN() {
		t.Fatalf("final scan ended at %d, want %d", pos, m.EndLSN())
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
