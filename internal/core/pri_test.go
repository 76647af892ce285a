package core

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/page"
)

func fullEntry(set uint64, asOf page.LSN) Entry {
	return Entry{Backup: BackupRef{Kind: BackupFull, Loc: set, AsOf: asOf}, LastLSN: asOf}
}

func TestGetOnEmptyPRI(t *testing.T) {
	p := NewPRI()
	if _, err := p.Get(1); !errors.Is(err, ErrNoEntry) {
		t.Errorf("empty PRI Get: %v", err)
	}
}

func TestSetRangeCoversAllPages(t *testing.T) {
	p := NewPRI()
	p.SetRange(1, 1000, fullEntry(7, 100))
	for _, id := range []page.ID{1, 500, 1000} {
		e, err := p.Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		if e.Backup.Loc != 7 || e.Backup.Kind != BackupFull {
			t.Errorf("Get(%d) = %+v", id, e)
		}
	}
	if _, err := p.Get(1001); !errors.Is(err, ErrNoEntry) {
		t.Error("page outside range resolved")
	}
	if p.RangeCount() != 1 {
		t.Errorf("RangeCount = %d, want 1", p.RangeCount())
	}
	if p.PageCount() != 1000 {
		t.Errorf("PageCount = %d, want 1000", p.PageCount())
	}
}

func TestSingletonSplitsRange(t *testing.T) {
	p := NewPRI()
	p.SetRange(1, 100, fullEntry(1, 10))
	p.Set(50, Entry{Backup: BackupRef{Kind: BackupPage, Loc: 999, AsOf: 20}, LastLSN: 30})
	if p.RangeCount() != 3 {
		t.Fatalf("RangeCount = %d, want 3 after split", p.RangeCount())
	}
	e, err := p.Get(50)
	if err != nil || e.Backup.Kind != BackupPage || e.LastLSN != 30 {
		t.Errorf("Get(50) = %+v, %v", e, err)
	}
	for _, id := range []page.ID{49, 51} {
		e, err := p.Get(id)
		if err != nil || e.Backup.Kind != BackupFull {
			t.Errorf("neighbor %d lost its mapping: %+v, %v", id, e, err)
		}
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCoalesceRestoresCompression(t *testing.T) {
	p := NewPRI()
	p.SetRange(1, 100, fullEntry(1, 10))
	p.Set(50, fullEntry(2, 20))
	if p.RangeCount() != 3 {
		t.Fatalf("expected split, got %d ranges", p.RangeCount())
	}
	// Setting page 50 back to the surrounding mapping re-merges.
	p.Set(50, fullEntry(1, 10))
	if p.RangeCount() != 1 {
		t.Errorf("RangeCount = %d, want 1 after coalesce", p.RangeCount())
	}
}

func TestSetRangeReplacesOverlaps(t *testing.T) {
	p := NewPRI()
	p.SetRange(1, 50, fullEntry(1, 10))
	p.SetRange(40, 80, fullEntry(2, 20))
	e, _ := p.Get(45)
	if e.Backup.Loc != 2 {
		t.Errorf("overlapped page kept old mapping: %+v", e)
	}
	e, _ = p.Get(39)
	if e.Backup.Loc != 1 {
		t.Errorf("non-overlapped page lost mapping: %+v", e)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

// TestReplaceRangeReportsWhatItReplaced: every overlapped range is reported
// once, at the first page of the overlap, and the index ends as SetRange
// would have left it.
func TestReplaceRangeReportsWhatItReplaced(t *testing.T) {
	p := NewPRI()
	p.SetRange(1, 100, fullEntry(1, 10))
	pageCopy := BackupRef{Kind: BackupPage, Loc: 999, AsOf: 20}
	p.Set(50, Entry{Backup: pageCopy, LastLSN: 30})
	got := p.ReplaceRange(40, 200, fullEntry(2, 0), 31)
	want := []Superseded{
		{Page: 40, Ref: fullEntry(1, 10).Backup},
		{Page: 50, Ref: pageCopy},
		{Page: 51, Ref: fullEntry(1, 10).Backup},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReplaceRange reported %+v, want %+v", got, want)
	}
	for id, set := range map[page.ID]uint64{39: 1, 40: 2, 50: 2, 200: 2} {
		if e, err := p.Get(id); err != nil || e.Backup.Kind != BackupFull || e.Backup.Loc != set {
			t.Errorf("Get(%d) = %+v, %v; want set %d", id, e, err, set)
		}
	}
	if p.RangeCount() != 2 {
		t.Errorf("RangeCount = %d, want 2", p.RangeCount())
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
	if got := p.ReplaceRange(300, 310, fullEntry(3, 0), 31); len(got) != 0 {
		t.Errorf("ReplaceRange over unmapped pages reported %+v", got)
	}
}

// TestReplaceRangeKeepsWritesNewerThanTheBackup: a page written after the
// backup began keeps its LastLSN under the new reference — its image in the
// set may predate that write — and every other page is reset, so the range
// still compresses.
func TestReplaceRangeKeepsWritesNewerThanTheBackup(t *testing.T) {
	p := NewPRI()
	p.SetRange(1, 100, fullEntry(1, 0))
	for id, lsn := range map[page.ID]page.LSN{10: 400, 20: 499, 30: 500, 31: 900} {
		if _, err := p.SetLastLSN(id, lsn); err != nil {
			t.Fatal(err)
		}
	}
	p.ReplaceRange(1, 100, fullEntry(2, 0), 500)
	for id, want := range map[page.ID]page.LSN{5: 0, 10: 0, 20: 0, 30: 500, 31: 900, 100: 0} {
		e, err := p.Get(id)
		if err != nil || e.Backup.Loc != 2 || e.LastLSN != want {
			t.Errorf("Get(%d) = %+v, %v; want set 2, LastLSN %d", id, e, err, want)
		}
	}
	if p.RangeCount() != 4 { // [1,29] 30 31 [32,100]
		t.Errorf("RangeCount = %d, want 4", p.RangeCount())
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSetLastLSN(t *testing.T) {
	p := NewPRI()
	p.SetRange(1, 10, fullEntry(1, 10))
	e, err := p.SetLastLSN(5, 77)
	if err != nil {
		t.Fatal(err)
	}
	if e.LastLSN != 77 {
		t.Errorf("returned entry LastLSN = %d", e.LastLSN)
	}
	got, _ := p.Get(5)
	if got.LastLSN != 77 {
		t.Errorf("stored LastLSN = %d", got.LastLSN)
	}
	// Backup ref preserved across the split.
	if got.Backup.Kind != BackupFull || got.Backup.Loc != 1 {
		t.Errorf("backup ref lost: %+v", got.Backup)
	}
	if _, err := p.SetLastLSN(999, 1); !errors.Is(err, ErrNoEntry) {
		t.Errorf("SetLastLSN unknown page: %v", err)
	}
}

func TestSetBackupReturnsPrevAndResetsLastLSN(t *testing.T) {
	p := NewPRI()
	p.Set(3, Entry{Backup: BackupRef{Kind: BackupPage, Loc: 11, AsOf: 10}, LastLSN: 50})
	prev, err := p.SetBackup(3, BackupRef{Kind: BackupPage, Loc: 22, AsOf: 60})
	if err != nil {
		t.Fatal(err)
	}
	if prev.Loc != 11 {
		t.Errorf("prev backup = %+v, want loc 11", prev)
	}
	e, _ := p.Get(3)
	if e.LastLSN != 60 {
		t.Errorf("LastLSN = %d, want reset to 60 (backup covers all updates)", e.LastLSN)
	}
	// A backup older than the newest update must NOT reset LastLSN.
	if _, err := p.SetBackup(3, BackupRef{Kind: BackupPage, Loc: 33, AsOf: 55}); err != nil {
		t.Fatal(err)
	}
	p.mustSetLastLSN(t, 3, 90)
	if _, err := p.SetBackup(3, BackupRef{Kind: BackupPage, Loc: 44, AsOf: 70}); err != nil {
		t.Fatal(err)
	}
	e, _ = p.Get(3)
	if e.LastLSN != 90 {
		t.Errorf("LastLSN = %d, want 90 preserved (updates newer than backup)", e.LastLSN)
	}
}

func (p *PRI) mustSetLastLSN(t *testing.T, id page.ID, lsn page.LSN) {
	t.Helper()
	if _, err := p.SetLastLSN(id, lsn); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	p := NewPRI()
	p.SetRange(1, 1000, fullEntry(1, 10))
	p.Set(10, Entry{Backup: BackupRef{Kind: BackupPage, Loc: 555, AsOf: 30}, LastLSN: 40})
	p.Set(20, Entry{Backup: BackupRef{Kind: BackupFormat, Loc: 666, AsOf: 35}, LastLSN: 35})
	snap := p.Snapshot()
	r, err := RestorePRI(snap)
	if err != nil {
		t.Fatal(err)
	}
	if r.RangeCount() != p.RangeCount() || r.PageCount() != p.PageCount() {
		t.Errorf("restored %d/%d, want %d/%d",
			r.RangeCount(), r.PageCount(), p.RangeCount(), p.PageCount())
	}
	for _, id := range []page.ID{1, 10, 20, 1000} {
		a, aerr := p.Get(id)
		b, berr := r.Get(id)
		if (aerr == nil) != (berr == nil) || a != b {
			t.Errorf("page %d: %+v/%v vs %+v/%v", id, a, aerr, b, berr)
		}
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := RestorePRI([]byte{1}); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("short snapshot: %v", err)
	}
	bad := make([]byte, 8)
	bad[0] = 3 // claims 3 ranges, provides none
	if _, err := RestorePRI(bad); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("truncated snapshot: %v", err)
	}
}

func TestSizeAccountingAndPaperBound(t *testing.T) {
	p := NewPRI()
	const pages = 10000
	p.SetRange(1, pages, fullEntry(1, 10))
	// Fully compressed: far below 16 bytes/page.
	if got := p.SizeBytes(); got > pages/10 {
		t.Errorf("compressed size = %d bytes for %d pages", got, pages)
	}
	// Fragment every page: worst case stays within the same order of
	// magnitude as the paper's 16 bytes/page bound.
	for i := page.ID(1); i <= pages; i++ {
		p.Set(i, Entry{Backup: BackupRef{Kind: BackupPage, Loc: uint64(i), AsOf: 1}, LastLSN: page.LSN(i)})
	}
	perPage := float64(p.CompactSizeBytes()) / pages
	if perPage > 16.5 {
		t.Errorf("compact worst case = %.1f bytes/page, paper bound ~16", perPage)
	}
}

func TestForEachRangeOrderAndEarlyStop(t *testing.T) {
	p := NewPRI()
	p.SetRange(1, 10, fullEntry(1, 1))
	p.SetRange(20, 30, fullEntry(2, 2))
	p.SetRange(40, 50, fullEntry(3, 3))
	var lows []page.ID
	p.ForEachRange(func(lo, hi page.ID, e Entry) bool {
		lows = append(lows, lo)
		return len(lows) < 2
	})
	if len(lows) != 2 || lows[0] != 1 || lows[1] != 20 {
		t.Errorf("visited %v", lows)
	}
}

func TestSetRangePanicsOnInvertedRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted range accepted")
		}
	}()
	NewPRI().SetRange(10, 5, Entry{})
}

func TestBackupKindStrings(t *testing.T) {
	for k := BackupNone; k <= BackupFormat+1; k++ {
		if k.String() == "" {
			t.Errorf("empty name for kind %d", k)
		}
	}
}

// Property: the PRI agrees with a naive per-page map under arbitrary
// interleavings of range sets, singleton sets, and LSN updates, and
// its structural invariants always hold.
func TestQuickPRIMatchesNaiveModel(t *testing.T) {
	f := func(ops []uint64) bool {
		p := NewPRI()
		naive := map[page.ID]Entry{}
		for _, o := range ops {
			kind := uint8(o)
			a := uint16(o >> 8)
			b := uint16(o >> 24)
			lsn := uint32(o>>40) + 1
			lo := page.ID(a%512) + 1
			hi := lo + page.ID(b%64)
			e := Entry{
				Backup:  BackupRef{Kind: BackupFull, Loc: uint64(lsn % 7), AsOf: page.LSN(lsn)},
				LastLSN: page.LSN(lsn),
			}
			switch kind % 3 {
			case 0:
				p.SetRange(lo, hi, e)
				for id := lo; id <= hi; id++ {
					naive[id] = e
				}
			case 1:
				p.Set(lo, e)
				naive[lo] = e
			case 2:
				if _, ok := naive[lo]; ok {
					if _, err := p.SetLastLSN(lo, page.LSN(lsn)); err != nil {
						return false
					}
					ne := naive[lo]
					if page.LSN(lsn) > ne.LastLSN { // SetLastLSN is monotone
						ne.LastLSN = page.LSN(lsn)
						naive[lo] = ne
					}
				}
			}
			if p.Validate() != nil {
				return false
			}
		}
		for id := page.ID(1); id <= 600; id++ {
			want, ok := naive[id]
			got, err := p.Get(id)
			if ok != (err == nil) {
				return false
			}
			if ok && got != want {
				return false
			}
		}
		return p.PageCount() == len(naive)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: snapshot/restore round-trips arbitrary PRI states.
func TestQuickPRISnapshotRoundTrip(t *testing.T) {
	f := func(seeds []uint16) bool {
		p := NewPRI()
		for i, s := range seeds {
			lo := page.ID(s%256) + 1
			p.SetRange(lo, lo+page.ID(s%16), fullEntry(uint64(i), page.LSN(s)))
		}
		r, err := RestorePRI(p.Snapshot())
		if err != nil {
			return false
		}
		if r.RangeCount() != p.RangeCount() {
			return false
		}
		for id := page.ID(1); id <= 300; id++ {
			a, aerr := p.Get(id)
			b, berr := r.Get(id)
			if (aerr == nil) != (berr == nil) || a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestFailureClassStringsAndEscalation(t *testing.T) {
	for c := TransactionFailure; c <= SinglePageFailure+1; c++ {
		if c.String() == "" {
			t.Errorf("empty name for class %d", c)
		}
	}
	chain := EscalationChain(10000, 25)
	if chain[0].Class != SinglePageFailure || chain[0].PagesLost != 1 || chain[0].TransactionsAbort != 0 {
		t.Errorf("single-page scope = %+v", chain[0])
	}
	if chain[1].Class != MediaFailure || chain[1].PagesLost != 10000 || chain[1].TransactionsAbort != 25 {
		t.Errorf("media scope = %+v", chain[1])
	}
	if !chain[2].FullRestartNeeded {
		t.Error("system failure must need a full restart")
	}
}

func TestSetLastLSNIsMonotone(t *testing.T) {
	p := NewPRI()
	p.SetRange(1, 10, fullEntry(1, 10))
	p.mustSetLastLSN(t, 5, 80)
	// A late, stale completed-write notification must not regress the
	// index below durable history.
	p.mustSetLastLSN(t, 5, 40)
	if e, _ := p.Get(5); e.LastLSN != 80 {
		t.Errorf("LastLSN regressed to %d, want 80", e.LastLSN)
	}
	p.mustSetLastLSN(t, 5, 90)
	if e, _ := p.Get(5); e.LastLSN != 90 {
		t.Errorf("LastLSN = %d, want raised to 90", e.LastLSN)
	}
}

// TestUpdatesCountedPerWriteUntilABackup: a page's update count is the sum
// its write-backs report — a late one that raises no LSN still counts — a
// new backup restarts it, and it is kept in memory only.
func TestUpdatesCountedPerWriteUntilABackup(t *testing.T) {
	p := NewPRI()
	p.SetRange(1, 10, fullEntry(1, 10))
	for _, w := range []struct {
		lsn     page.LSN
		updates int
	}{{40, 3}, {80, 4}, {60, 2}} {
		if _, err := p.RecordWrite(5, w.lsn, w.updates); err != nil {
			t.Fatal(err)
		}
	}
	if e, _ := p.Get(5); e.Updates != 9 || e.LastLSN != 80 {
		t.Fatalf("entry %+v, want 9 updates up to LSN 80", e)
	}
	if e, _ := p.Get(6); e.Updates != 0 {
		t.Fatalf("neighbor counted %d updates", e.Updates)
	}
	r, err := RestorePRI(p.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := r.Get(5); e.Updates != 0 || e.LastLSN != 80 {
		t.Fatalf("restored entry %+v, want the LSN without the count", e)
	}
	if _, err := p.SetBackup(5, BackupRef{Kind: BackupPage, Loc: 3, AsOf: 80}); err != nil {
		t.Fatal(err)
	}
	if e, _ := p.Get(5); e.Updates != 0 {
		t.Fatalf("%d updates counted past the new backup", e.Updates)
	}
}

// TestQuickPageCountMatchesWalk: the page count splice keeps equals a walk
// over every range after any sequence of index mutations, and after a
// snapshot round trip.
func TestQuickPageCountMatchesWalk(t *testing.T) {
	walk := func(p *PRI) int {
		n := 0
		p.ForEachRange(func(lo, hi page.ID, _ Entry) bool { n += int(hi - lo + 1); return true })
		return n
	}
	f := func(ops []uint32) bool {
		p := NewPRI()
		for _, op := range ops {
			lo := page.ID(op>>8%64 + 1)
			hi := lo + page.ID(op>>16%8)
			e := fullEntry(uint64(op>>24%3), page.LSN(op%5))
			switch op % 5 {
			case 0:
				p.SetRange(lo, hi, e)
			case 1:
				p.Set(lo, e)
			case 2:
				p.ReplaceRange(lo, hi, e, page.LSN(op%7))
			case 3:
				_, _ = p.SetLastLSN(lo, page.LSN(op>>4%9))
			default:
				_, _ = p.SetBackup(lo, BackupRef{Kind: BackupPage, Loc: uint64(op >> 20), AsOf: page.LSN(op % 3)})
			}
			if p.PageCount() != walk(p) {
				return false
			}
		}
		q, err := RestorePRI(p.Snapshot())
		return err == nil && q.PageCount() == walk(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
