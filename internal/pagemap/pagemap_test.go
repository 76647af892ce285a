package pagemap

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/page"
	"repro/internal/storage"
)

func TestAllocateLogicalSequence(t *testing.T) {
	m := New(InPlace, 100)
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
	m := New(InPlace, 100)
	id := m.AllocateLogical()
	if _, ok := m.Lookup(id); ok {
		t.Error("never-written page has a physical slot")
	}
}

func TestInPlaceWriteTargetStable(t *testing.T) {
	m := New(InPlace, 100)
	id := m.AllocateLogical()
	s1, _, had, err := m.WriteTarget(id)
	if err != nil || had {
		t.Fatalf("first write: %v had=%v", err, had)
	}
	s2, _, had2, err := m.WriteTarget(id)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s1 || had2 {
		t.Errorf("in-place write moved page: %d -> %d", s1, s2)
	}
}

func TestCopyOnWriteMovesEveryWrite(t *testing.T) {
	m := New(CopyOnWrite, 100)
	id := m.AllocateLogical()
	s1, _, had, err := m.WriteTarget(id)
	if err != nil || had {
		t.Fatalf("first write: %v had=%v", err, had)
	}
	s2, prev, had2, err := m.WriteTarget(id)
	if err != nil {
		t.Fatal(err)
	}
	if !had2 || prev != s1 || s2 == s1 {
		t.Errorf("COW write: dst=%d prev=%d had=%v, want fresh slot and prev=%d", s2, prev, had2, s1)
	}
	if got, ok := m.Lookup(id); !ok || got != s2 {
		t.Errorf("lookup = %d/%v, want %d", got, ok, s2)
	}
}

func TestWriteTargetUnknownPage(t *testing.T) {
	m := New(InPlace, 10)
	if _, _, _, err := m.WriteTarget(55); !errors.Is(err, ErrUnknownPage) {
		t.Errorf("unknown page: %v", err)
	}
}

func TestDeviceFull(t *testing.T) {
	m := New(InPlace, 2)
	for i := 0; i < 2; i++ {
		id := m.AllocateLogical()
		if _, _, _, err := m.WriteTarget(id); err != nil {
			t.Fatal(err)
		}
	}
	id := m.AllocateLogical()
	if _, _, _, err := m.WriteTarget(id); !errors.Is(err, ErrNoFreeSlots) {
		t.Errorf("full device: %v", err)
	}
}

// TestUnbind: a page taken off its slot is known and unbound — in either
// write mode its next write allocates with no previous slot to keep as a
// backup — and the slot it left is out of the allocator's reach until it
// is explicitly freed.
func TestUnbind(t *testing.T) {
	for _, mode := range []Mode{InPlace, CopyOnWrite} {
		m := New(mode, 10)
		id := m.AllocateLogical()
		orig, _, _, err := m.WriteTarget(id)
		if err != nil {
			t.Fatal(err)
		}
		m.Unbind(id)
		if _, bound := m.Lookup(id); bound || !m.Known(id) {
			t.Fatalf("%v: after Unbind bound=%v known=%v, want unbound and known", mode, bound, m.Known(id))
		}
		if _, mapped := m.MappedSlots()[orig]; mapped {
			t.Errorf("%v: slot %d still mapped", mode, orig)
		}
		dst, _, had, err := m.WriteTarget(id)
		if err != nil || had || dst == orig {
			t.Fatalf("%v: write after Unbind: dst=%d (was %d) hadPrev=%v err=%v", mode, dst, orig, had, err)
		}
		// The slot left behind can be freed, once, and is then reused.
		if err := m.FreeSlot(orig); err != nil {
			t.Fatal(err)
		}
		if err := m.FreeSlot(orig); !errors.Is(err, ErrDoubleFree) {
			t.Errorf("%v: double free: %v", mode, err)
		}
		id2 := m.AllocateLogical()
		if s2, _, _, err := m.WriteTarget(id2); err != nil || s2 != orig {
			t.Errorf("%v: freed slot not reused: got %d want %d (%v)", mode, s2, orig, err)
		}
		// Unbinding an unbound or unknown page changes nothing.
		m.Unbind(id2 + 100)
		if m.Known(id2 + 100) {
			t.Errorf("%v: Unbind created a page", mode)
		}
	}
}

func TestFreeSlotStillMapped(t *testing.T) {
	m := New(InPlace, 10)
	id := m.AllocateLogical()
	s, _, _, err := m.WriteTarget(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FreeSlot(s); !errors.Is(err, ErrSlotBusy) {
		t.Errorf("freeing mapped slot: %v", err)
	}
}

func TestDropLogical(t *testing.T) {
	m := New(InPlace, 10)
	id := m.AllocateLogical()
	if _, _, _, err := m.WriteTarget(id); err != nil {
		t.Fatal(err)
	}
	if err := m.DropLogical(id); err != nil {
		t.Fatal(err)
	}
	if m.Known(id) {
		t.Error("dropped page still known")
	}
	if err := m.DropLogical(id); !errors.Is(err, ErrUnknownPage) {
		t.Errorf("double drop: %v", err)
	}
}

func TestRemapAndAdopt(t *testing.T) {
	m := New(InPlace, 100)
	id := m.AllocateLogical()
	if err := m.Remap(id, 42); err != nil {
		t.Fatal(err)
	}
	if s, ok := m.Lookup(id); !ok || s != 42 {
		t.Errorf("lookup after remap = %d/%v", s, ok)
	}
	if err := m.Remap(999, 1); !errors.Is(err, ErrUnknownPage) {
		t.Errorf("remap unknown: %v", err)
	}
	if err := m.Adopt(50, 7); err != nil {
		t.Fatal(err)
	}
	if err := m.Adopt(50, 8); !errors.Is(err, ErrAlreadyKnown) {
		t.Errorf("double adopt: %v", err)
	}
	// nextID advanced past adopted page.
	next := m.AllocateLogical()
	if next <= 50 {
		t.Errorf("AllocateLogical after Adopt(50) = %d, want > 50", next)
	}
}

func TestPagesSortedAndMappedSlots(t *testing.T) {
	m := New(InPlace, 100)
	var ids []page.ID
	for i := 0; i < 5; i++ {
		id := m.AllocateLogical()
		ids = append(ids, id)
		if i%2 == 0 {
			if _, _, _, err := m.WriteTarget(id); err != nil {
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
	m := New(CopyOnWrite, 64)
	var ids []page.ID
	for i := 0; i < 10; i++ {
		id := m.AllocateLogical()
		ids = append(ids, id)
		if _, _, _, err := m.WriteTarget(id); err != nil {
			t.Fatal(err)
		}
	}
	// Generate some churn: move a page and free the slot it left.
	_, prev, _, err := m.WriteTarget(ids[3])
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FreeSlot(prev); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	r, err := Restore(snap, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode() != CopyOnWrite {
		t.Error("mode lost")
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
	if _, err := Restore(make([]byte, 40), 10); err != nil {
		// 40 zero bytes decode as an empty map — acceptable.
		_ = err
	}
	// Claimed huge entry count with no data must fail, not panic.
	bad := make([]byte, 32)
	bad[24] = 0xFF
	if _, err := Restore(bad, 10); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("truncated snapshot: %v", err)
	}
}

func TestModeString(t *testing.T) {
	if InPlace.String() != "in-place" || CopyOnWrite.String() != "copy-on-write" {
		t.Error("mode strings wrong")
	}
}

// Property: in COW mode, no two live pages ever share a physical slot, and
// freed slots never alias a live mapping.
func TestQuickCOWNoAliasing(t *testing.T) {
	f := func(ops []uint8) bool {
		m := New(CopyOnWrite, 4096)
		var ids []page.ID
		for _, op := range ops {
			switch {
			case op%3 == 0 || len(ids) == 0:
				ids = append(ids, m.AllocateLogical())
			default:
				id := ids[int(op)%len(ids)]
				_, prev, had, err := m.WriteTarget(id)
				if errors.Is(err, ErrNoFreeSlots) {
					return true
				}
				if err != nil {
					return false
				}
				if had {
					if err := m.FreeSlot(prev); err != nil {
						return false
					}
				}
			}
		}
		seen := map[storage.PhysID]bool{}
		for s := range m.MappedSlots() {
			if seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: snapshot/restore is lossless for arbitrary operation sequences.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(ops []uint8) bool {
		m := New(InPlace, 4096)
		var ids []page.ID
		for _, op := range ops {
			if op%2 == 0 || len(ids) == 0 {
				ids = append(ids, m.AllocateLogical())
			} else {
				if _, _, _, err := m.WriteTarget(ids[int(op)%len(ids)]); err != nil {
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
	f := func(ops []uint16, cow bool) bool {
		mode := InPlace
		if cow {
			mode = CopyOnWrite
		}
		m := New(mode, 4096)
		for _, op := range ops {
			id := page.ID(op>>4%40 + 1)
			switch op % 10 {
			case 0:
				m.AllocateLogical()
			case 1:
				_ = m.Adopt(id, storage.PhysID(op>>4))
			case 2:
				_ = m.EnsureMapping(id, storage.PhysID(op>>6))
			case 3:
				m.AdoptFresh(id)
			case 4:
				_ = m.DropLogical(id)
			case 5:
				m.Unbind(id)
			case 6:
				_ = m.Remap(id, storage.PhysID(op>>5))
			case 7:
				_, _, _, _ = m.WriteTarget(id)
			case 8:
				if op%3 == 0 {
					m.ForgetSlots()
				}
			default:
				_ = m.FreeSlot(storage.PhysID(op >> 8))
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
