package page

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// modelRecord and model are the sorted-slice reference the layout is
// checked against: the obvious representation, kept as the test oracle.
type modelRecord struct {
	key, val []byte
	ghost    bool
}

type model struct {
	reserved [][]byte
	recs     []modelRecord // sorted by key
}

func (m *model) find(key []byte) (int, bool) {
	i := sort.Search(len(m.recs), func(i int) bool { return bytes.Compare(m.recs[i].key, key) >= 0 })
	return i, i < len(m.recs) && bytes.Equal(m.recs[i].key, key)
}

// build renders the model from scratch — the canonical image of its
// logical content.
func (m *model) build(t *testing.T, kind uint8, ext []byte, size int) *Page {
	t.Helper()
	pg := New(1, TypeBTree, size)
	if err := pg.SetPayload(NewRecords(kind, ext, m.reserved...)); err != nil {
		t.Fatal(err)
	}
	for i, r := range m.recs {
		if err := pg.InsertRecord(i, r.key, r.val, r.ghost); err != nil {
			t.Fatal(err)
		}
	}
	return pg
}

// agree asserts pg holds exactly the model's content, through every
// accessor.
func (m *model) agree(t *testing.T, pg *Page) {
	t.Helper()
	if err := Check(pg.Payload()); err != nil {
		t.Fatalf("Check: %v", err)
	}
	r, err := ParseRecords(pg.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != len(m.recs) || r.Reserved() != len(m.reserved) || r.Size() != len(pg.Payload()) {
		t.Fatalf("count %d reserved %d size %d, model has %d records %d reserved, payload %d bytes",
			r.Count(), r.Reserved(), r.Size(), len(m.recs), len(m.reserved), len(pg.Payload()))
	}
	for i, want := range m.reserved {
		if got, err := r.ReservedRecord(i); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("reserved %d = %q, %v; want %q", i, got, err, want)
		}
	}
	for i, want := range m.recs {
		k, v, g, err := r.Record(i)
		if err != nil || !bytes.Equal(k, want.key) || !bytes.Equal(v, want.val) || g != want.ghost {
			t.Fatalf("record %d = (%q, %q, %v), %v; want (%q, %q, %v)", i, k, v, g, err, want.key, want.val, want.ghost)
		}
		if at, found, err := r.Find(want.key); err != nil || !found || at != i {
			t.Fatalf("Find(%q) = %d, %v, %v; want %d", want.key, at, found, err, i)
		}
	}
}

// TestRecordsAgainstModel drives seeded random mutator sequences against
// the in-place layout and the sorted-slice model, asserting after every op
// that the page checks clean and reads back as the model, and at the end
// that the image is canonical: byte-identical to a second page driven by
// the same ops and to one built from the model's final content directly.
// It runs at the smallest page size too, where ErrTooLarge paths are hit.
func TestRecordsAgainstModel(t *testing.T) {
	for _, size := range []int{MinSize, 2048} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("size=%d/seed=%d", size, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				ext := []byte("extension")
				m := &model{reserved: [][]byte{[]byte("lo"), nil, []byte("chain-high")}}
				pages := []*Page{m.build(t, KindNode, ext, size), m.build(t, KindNode, ext, size)}
				randBytes := func(max int) []byte {
					b := make([]byte, rng.Intn(max+1))
					rng.Read(b)
					return b
				}
				for step := 0; step < 600; step++ {
					key := []byte(fmt.Sprintf("k%03d", rng.Intn(60)))
					i, found := m.find(key)
					val, ghost := randBytes(40), rng.Intn(4) == 0
					res := rng.Intn(len(m.reserved))
					// One op per step: what it does to a page, and to the
					// model once a page accepted it.
					var onPage func(*Page) error
					var onModel func()
					switch op := rng.Intn(6); {
					case op == 0 && !found:
						onPage = func(pg *Page) error { return pg.InsertRecord(i, key, val, ghost) }
						onModel = func() {
							m.recs = append(m.recs[:i], append([]modelRecord{{key, val, ghost}}, m.recs[i:]...)...)
						}
					case op == 1 && found:
						onPage = func(pg *Page) error { return pg.RemoveRecords(i, i+1) }
						onModel = func() { m.recs = append(m.recs[:i], m.recs[i+1:]...) }
					case op == 2 && found:
						onPage = func(pg *Page) error { return pg.SetRecordValue(i, val) }
						onModel = func() { m.recs[i].val = val }
					case op == 3 && found:
						onPage = func(pg *Page) error { return pg.SetRecordGhost(i, ghost) }
						onModel = func() { m.recs[i].ghost = ghost }
					case op == 4:
						onPage = func(pg *Page) error { return pg.SetReservedRecord(res, val) }
						onModel = func() { m.reserved[res] = val }
					case op == 5 && len(m.recs) > 0 && rng.Intn(20) == 0:
						cut := rng.Intn(len(m.recs)) // a split's truncation
						onPage = func(pg *Page) error { return pg.RemoveRecords(cut, len(m.recs)) }
						onModel = func() { m.recs = m.recs[:cut] }
					default:
						continue
					}
					err := onPage(pages[0])
					if err2 := onPage(pages[1]); (err == nil) != (err2 == nil) {
						t.Fatalf("step %d: identical ops diverged: %v vs %v", step, err, err2)
					}
					// A page may refuse an op for lack of room, and must then
					// be left untouched; nothing else may fail.
					if err == nil {
						onModel()
					} else if !errors.Is(err, ErrTooLarge) {
						t.Fatalf("step %d: %v", step, err)
					}
					m.agree(t, pages[0])
				}
				if !bytes.Equal(pages[0].Payload(), pages[1].Payload()) {
					t.Error("identical op sequences produced different images")
				}
				if canon := m.build(t, KindNode, ext, size); !bytes.Equal(pages[0].Payload(), canon.Payload()) {
					t.Error("image is not canonical: differs from one built from the same content")
				}
			})
		}
	}
}

// layoutSeeds are well-formed payloads of every structured page kind:
// B-tree leaf and branch shapes, hash bucket and overflow shapes, and the
// hash directory.
func layoutSeeds(t testing.TB) [][]byte {
	build := func(kind uint8, ext []byte, reserved [][]byte, recs ...modelRecord) []byte {
		pg := New(1, TypeBTree, 1024)
		if err := pg.SetPayload(NewRecords(kind, ext, reserved...)); err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			if err := pg.InsertRecord(i, r.key, r.val, r.ghost); err != nil {
				t.Fatal(err)
			}
		}
		return pg.Payload()
	}
	fences := [][]byte{[]byte("a"), []byte("zz"), nil}
	child := make([]byte, 8)
	return [][]byte{
		build(KindNode, make([]byte, 19), fences),
		build(KindNode, make([]byte, 19), fences,
			modelRecord{[]byte("b"), []byte("1"), false},
			modelRecord{[]byte("c"), nil, true},
			modelRecord{[]byte("dd"), bytes.Repeat([]byte("v"), 64), false}),
		build(KindNode, make([]byte, 19), fences,
			modelRecord{[]byte("m"), child, false}, modelRecord{[]byte("t"), child, false}),
		build(KindBucket, make([]byte, 28), nil),
		build(KindBucket, make([]byte, 28), nil,
			modelRecord{[]byte("k1"), []byte("v1"), false}, modelRecord{[]byte("k2"), []byte("v2"), true}),
		NewIDArray(KindDirectory, make([]byte, 8), []ID{7, 9}),
		NewIDArray(KindDirectory, make([]byte, 8), []ID{4, 5, 6, 7, 8}),
	}
}

// FuzzCheck drives the structured-payload validation with arbitrary
// payloads of every kind. No input may panic; a payload Check accepts must
// keep every accessor in bounds and self-consistent (each key is found at
// its own index), and must stay acceptable under the in-place mutators — so
// scrubbing, chain replay and the engines' binary searches agree about any
// image the pool would admit.
func FuzzCheck(f *testing.F) {
	for _, seed := range layoutSeeds(f) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])         // truncated
		f.Add(append([]byte{0}, seed...)) // shifted: wrong kind
		flipped := append([]byte(nil), seed...)
		flipped[len(flipped)-1] ^= 0x80
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{KindBucket, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{KindDirectory, 0, 0, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, payload []byte) {
		// The O(1) parses and bounds-checked accessors must hold up on
		// ANY input, accepted or not.
		if r, err := ParseRecords(payload); err == nil {
			for i := -1; i <= r.Count(); i++ {
				_, _, _, _ = r.Record(i)
			}
			for i := 0; i <= r.Reserved(); i++ {
				_, _ = r.ReservedRecord(i)
			}
			// Find reads keys off the offset array itself; on any page it
			// must answer exactly as a binary search through Record does,
			// errors included.
			for _, probe := range findProbes(r) {
				i, found, err := r.Find(probe)
				wi, wfound, werr := findViaRecord(r, probe)
				if i != wi || found != wfound || fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("Find(%q) = %d, %v, %v; through Record %d, %v, %v", probe, i, found, err, wi, wfound, werr)
				}
			}
		}
		if a, err := ParseIDArray(payload); err == nil {
			_ = a.At(-1)
			_ = a.At(a.Len())
		}
		if err := Check(payload); err != nil {
			return // rejected cleanly
		}
		if payload[0] == KindDirectory {
			a, err := ParseIDArray(payload)
			if err != nil {
				t.Fatalf("Check accepted what ParseIDArray rejects: %v", err)
			}
			ids := make([]ID, a.Len())
			for i := range ids {
				ids[i] = a.At(i)
			}
			if !bytes.Equal(NewIDArray(a.Kind(), a.Ext(), ids), payload) {
				t.Fatal("directory does not rebuild to itself")
			}
			return
		}
		r, err := ParseRecords(payload)
		if err != nil {
			t.Fatalf("Check accepted what ParseRecords rejects: %v", err)
		}
		var reserved [][]byte
		for i := 0; i < r.Reserved(); i++ {
			rec, err := r.ReservedRecord(i)
			if err != nil {
				t.Fatalf("reserved record %d of an accepted page: %v", i, err)
			}
			reserved = append(reserved, rec)
		}
		// Accepted pages are canonical: rebuilding from the content the
		// accessors report reproduces the bytes.
		rebuilt := New(1, TypeBTree, len(payload)+HeaderSize+MinSize)
		if err := rebuilt.SetPayload(NewRecords(r.Kind(), r.Ext(), reserved...)); err != nil {
			t.Fatal(err)
		}
		// On a checked page Find agrees with a linear scan, for every key
		// present and for keys between, before and after them.
		for _, probe := range findProbes(r) {
			want, wantFound := r.Count(), false
			for i := 0; i < r.Count(); i++ {
				k, _, _, err := r.Record(i)
				if err != nil {
					t.Fatalf("record %d of an accepted page: %v", i, err)
				}
				if c := bytes.Compare(k, probe); c >= 0 {
					want, wantFound = i, c == 0
					break
				}
			}
			if at, found, err := r.Find(probe); err != nil || at != want || found != wantFound {
				t.Fatalf("Find(%q) = %d, %v, %v; linear scan %d, %v", probe, at, found, err, want, wantFound)
			}
		}
		for i := 0; i < r.Count(); i++ {
			k, v, g, err := r.Record(i)
			if err != nil {
				t.Fatalf("record %d of an accepted page: %v", i, err)
			}
			if err := rebuilt.InsertRecord(i, k, v, g); err != nil {
				t.Fatalf("rebuilding record %d: %v", i, err)
			}
		}
		if !bytes.Equal(rebuilt.Payload(), payload) {
			t.Fatal("accepted record page does not rebuild to itself")
		}
		// And they stay sound under the mutators.
		if r.Count() > 0 {
			if err := rebuilt.SetRecordValue(0, []byte("grown value")); err != nil {
				t.Fatal(err)
			}
			if err := rebuilt.SetRecordGhost(r.Count()-1, true); err != nil {
				t.Fatal(err)
			}
			if err := rebuilt.RemoveRecords(0, (r.Count()+1)/2); err != nil {
				t.Fatal(err)
			}
		}
		if err := Check(rebuilt.Payload()); err != nil {
			t.Fatalf("mutated page no longer checks clean: %v", err)
		}
	})
}

// findProbes returns keys to search r for: "probe", the empty key, and
// for each record whose key reads, that key, the key with a byte
// appended and the key less its last byte.
func findProbes(r Records) [][]byte {
	probes := [][]byte{[]byte("probe"), {}}
	for i := 0; i < r.Count(); i++ {
		k, _, _, err := r.Record(i)
		if err != nil {
			continue
		}
		probes = append(probes, k, append(append([]byte(nil), k...), 0), k[:max(len(k)-1, 0)])
	}
	return probes
}

// findViaRecord is Find as a binary search through Record.
func findViaRecord(r Records, key []byte) (int, bool, error) {
	lo, hi := 0, r.Count()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		k, _, _, err := r.Record(mid)
		if err != nil {
			return 0, false, err
		}
		switch c := bytes.Compare(k, key); {
		case c == 0:
			return mid, true, nil
		case c < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false, nil
}

func TestCheckRejectsStructuralDamage(t *testing.T) {
	seeds := layoutSeeds(t)
	for i, seed := range seeds {
		if err := Check(seed); err != nil {
			t.Errorf("seed %d: %v", i, err)
		}
	}
	if err := Check(nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty payload: %v", err)
	}
	if err := Check([]byte{99, 0, 0, 0, 0}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown kind: %v", err)
	}
	// Page.Check additionally pairs the layout kind with the page type.
	pg := New(1, TypeHash, 1024)
	if err := pg.SetPayload(seeds[1]); err != nil { // a B-tree leaf
		t.Fatal(err)
	}
	if err := pg.Check(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("node layout on a hash page: %v", err)
	}
	raw := New(2, TypeRaw, 512)
	if err := raw.SetPayload([]byte("anything")); err != nil {
		t.Fatal(err)
	}
	if err := raw.Check(); err != nil {
		t.Errorf("unstructured page type: %v", err)
	}
}
