package pagemap

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/page"
	"repro/internal/storage"
)

func TestAllocateLogicalSequence(t *testing.T) {
	m := New(100)
	a := m.AllocateLogical()
	b := m.AllocateLogical()
	if a == page.InvalidID || b == page.InvalidID {
		t.Fatal("allocated InvalidID")
	}
	if a == b {
		t.Fatal("duplicate logical IDs")
	}
	if !m.Known(a) || !m.Known(b) {
		t.Error("allocated pages not known")
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
}

func TestLookupBeforeFirstWrite(t *testing.T) {
	m := New(100)
	id := m.AllocateLogical()
	if _, ok := m.Lookup(id); ok {
		t.Error("never-written page has a physical slot")
	}
}

func TestInPlaceWriteTargetStable(t *testing.T) {
	m := New(100)
	id := m.AllocateLogical()
	s1, err := m.WriteTarget(id)
	if err != nil {
		t.Fatalf("first write: %v", err)
	}
	s2, err := m.WriteTarget(id)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s1 {
		t.Errorf("in-place write moved page: %d -> %d", s1, s2)
	}
	if got, ok := m.Lookup(id); !ok || got != s1 {
		t.Errorf("lookup = %d/%v, want %d", got, ok, s1)
	}
}

func TestWriteTargetUnknownPage(t *testing.T) {
	m := New(10)
	if _, err := m.WriteTarget(55); !errors.Is(err, ErrUnknownPage) {
		t.Errorf("unknown page: %v", err)
	}
}

func TestDeviceFull(t *testing.T) {
	m := New(2)
	for i := 0; i < 2; i++ {
		id := m.AllocateLogical()
		if _, err := m.WriteTarget(id); err != nil {
			t.Fatal(err)
		}
	}
	id := m.AllocateLogical()
	if _, err := m.WriteTarget(id); !errors.Is(err, ErrNoFreeSlots) {
		t.Errorf("full device: %v", err)
	}
}

// TestUnbind: a page taken off its slot is known and unbound — its next
// write allocates — and the slot it left is never handed out again.
func TestUnbind(t *testing.T) {
	m := New(3)
	id := m.AllocateLogical()
	orig, err := m.WriteTarget(id)
	if err != nil {
		t.Fatal(err)
	}
	m.Unbind(id)
	if _, bound := m.Lookup(id); bound || !m.Known(id) {
		t.Fatalf("after Unbind bound=%v known=%v, want unbound and known", bound, m.Known(id))
	}
	if _, mapped := m.MappedSlots()[orig]; mapped {
		t.Errorf("slot %d still mapped", orig)
	}
	dst, err := m.WriteTarget(id)
	if err != nil || dst == orig {
		t.Fatalf("write after Unbind: dst=%d (was %d) err=%v", dst, orig, err)
	}
	id2 := m.AllocateLogical()
	if s2, err := m.WriteTarget(id2); err != nil || s2 == orig {
		t.Errorf("the slot left behind was handed out again: got %d (%v)", s2, err)
	}
	if _, err := m.WriteTarget(m.AllocateLogical()); !errors.Is(err, ErrNoFreeSlots) {
		t.Errorf("a third slot beside the one left behind: %v", err)
	}
	// Unbinding an unbound or unknown page changes nothing.
	m.Unbind(id2 + 100)
	if m.Known(id2 + 100) {
		t.Error("Unbind created a page")
	}
}

func TestPagesSortedAndMappedSlots(t *testing.T) {
	m := New(100)
	var ids []page.ID
	for i := 0; i < 5; i++ {
		id := m.AllocateLogical()
		ids = append(ids, id)
		if i%2 == 0 {
			if _, err := m.WriteTarget(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := m.Pages()
	if len(got) != 5 {
		t.Fatalf("Pages len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("Pages not sorted")
		}
	}
	slots := m.MappedSlots()
	if len(slots) != 3 {
		t.Errorf("MappedSlots len = %d, want 3 (only written pages)", len(slots))
	}
	for s, id := range slots {
		if cur, ok := m.Lookup(id); !ok || cur != s {
			t.Errorf("slot %d maps to %d inconsistently", s, id)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m := New(64)
	var ids []page.ID
	for i := 0; i < 10; i++ {
		id := m.AllocateLogical()
		ids = append(ids, id)
		if _, err := m.WriteTarget(id); err != nil {
			t.Fatal(err)
		}
	}
	// Generate some churn: take a page off its slot.
	m.Unbind(ids[3])
	snap := m.Snapshot()
	r, err := Restore(snap, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != m.Len() {
		t.Errorf("restored %d pages, want %d", r.Len(), m.Len())
	}
	for _, id := range ids {
		ws, wok := m.Lookup(id)
		gs, gok := r.Lookup(id)
		if wok != gok || ws != gs {
			t.Errorf("page %d: restored %d/%v, want %d/%v", id, gs, gok, ws, wok)
		}
	}
	// Allocation sequences continue identically.
	if a, b := m.AllocateLogical(), r.AllocateLogical(); a != b {
		t.Errorf("post-restore allocation diverges: %d vs %d", a, b)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore([]byte{1, 2, 3}, 10); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("short snapshot: %v", err)
	}
	if _, err := Restore(make([]byte, 32), 10); err != nil {
		// 32 zero bytes decode as an empty map — acceptable.
		_ = err
	}
	// Claimed huge entry count with no data must fail, not panic.
	bad := make([]byte, 24)
	bad[16] = 0xFF
	if _, err := Restore(bad, 10); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("truncated snapshot: %v", err)
	}
}

// Property: snapshot/restore is lossless for arbitrary operation sequences.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(ops []uint8) bool {
		m := New(4096)
		var ids []page.ID
		for _, op := range ops {
			if op%2 == 0 || len(ids) == 0 {
				ids = append(ids, m.AllocateLogical())
			} else {
				if _, err := m.WriteTarget(ids[int(op)%len(ids)]); err != nil {
					return false
				}
			}
		}
		r, err := Restore(m.Snapshot(), 4096)
		if err != nil {
			return false
		}
		if r.Len() != m.Len() {
			return false
		}
		for _, id := range m.Pages() {
			a, aok := m.Lookup(id)
			b, bok := r.Lookup(id)
			if a != b || aok != bok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickLenMatchesWalk: the count of known pages the map keeps equals a
// walk over its stripes after any sequence of mutations, and after a
// snapshot round trip.
func TestQuickLenMatchesWalk(t *testing.T) {
	f := func(ops []uint16) bool {
		m := New(4096)
		for _, op := range ops {
			id := page.ID(op>>4%40 + 1)
			switch op % 6 {
			case 0:
				m.AllocateLogical()
			case 1:
				_ = m.EnsureMapping(id, storage.PhysID(op>>6))
			case 2:
				m.AdoptFresh(id)
			case 3:
				m.Unbind(id)
			case 4:
				_, _ = m.WriteTarget(id)
			default:
				if op%3 == 0 {
					m.ForgetSlots()
				}
			}
			if m.Len() != len(m.Pages()) {
				return false
			}
		}
		r, err := Restore(m.Snapshot(), 4096)
		return err == nil && r.Len() == m.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
