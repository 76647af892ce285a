package spf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/btree"
	"repro/internal/hashindex"
	"repro/internal/page"
)

// damage is one way of making a stored page image implausible. apply edits
// the payload in place (pl aliases the image) and reports false when the
// victim has nothing of that shape to damage.
type damage struct {
	name  string
	apply func(pl []byte, c *parityCtx) bool
}

// parityCtx carries what a damage needs besides the victim's own bytes:
// healthy pages of the same structure to mis-point at.
type parityCtx struct {
	otherNode   page.ID // a B-tree page that is not the victim
	otherBucket page.ID // a primary bucket page that is not the victim
}

// Field offsets within a payload: the shared five-byte layout header, then
// the engine extension (see the "Page layout" section of ARCHITECTURE.md).
const (
	offKind, offExtLen, offReserved, offCount = 0, 1, 2, 3
	offExt                                    = page.LayoutHeaderSize

	nodeLevel, nodeFlags, nodeFoster, nodeChild0 = offExt, offExt + 2, offExt + 3, offExt + 11

	bktNum, bktStamp, bktDir, bktNext, bktPos = offExt, offExt + 4, offExt + 8, offExt + 16, offExt + 24

	dirLevel, dirNext, dirIDs = offExt, offExt + 4, offExt + 8
)

// offsetArray returns the record page's offset array (aliasing pl).
func offsetArray(pl []byte) []byte {
	at := offExt + int(pl[offExtLen])
	return pl[at : at+2*int(binary.LittleEndian.Uint16(pl[offCount:]))]
}

// headerDamages hit the layout header every structured page starts with.
var headerDamages = []damage{
	{"header/kind", func(pl []byte, _ *parityCtx) bool { pl[offKind] = 0x7f; return true }},
	{"header/extLen", func(pl []byte, _ *parityCtx) bool { pl[offExtLen]++; return true }},
	{"header/reserved", func(pl []byte, _ *parityCtx) bool { pl[offReserved]++; return true }},
	{"header/count", func(pl []byte, _ *parityCtx) bool { pl[offCount]++; return true }},
}

// offsetDamages are the three classes of bad record offsets; they apply to
// every record page (leaf, branch, bucket, overflow).
var offsetDamages = []damage{
	{"offset/out-of-bounds", func(pl []byte, _ *parityCtx) bool {
		offs := offsetArray(pl)
		if len(offs) < 4 {
			return false
		}
		// A middle offset beyond the record area (the last one would just
		// disagree with the payload length).
		binary.LittleEndian.PutUint16(offs[len(offs)-4:], 0xfff0)
		return true
	}},
	{"offset/overlapping", func(pl []byte, _ *parityCtx) bool {
		offs := offsetArray(pl)
		if len(offs) < 4 {
			return false
		}
		// Record n-2 ends before record n-3 does: the slots overlap.
		prev := uint16(0)
		if len(offs) >= 6 {
			prev = binary.LittleEndian.Uint16(offs[len(offs)-6:])
		}
		if prev == 0 {
			return false
		}
		binary.LittleEndian.PutUint16(offs[len(offs)-4:], prev-1)
		return true
	}},
	{"offset/key-order", func(pl []byte, _ *parityCtx) bool {
		r, err := page.ParseRecords(pl)
		if err != nil || r.Count() < 2 {
			return false
		}
		// Offsets stay sound; the keys they lead to are out of order.
		k0, _, _, _ := r.Record(0)
		k1, _, _, _ := r.Record(1)
		if len(k0) != len(k1) {
			return false
		}
		tmp := append([]byte(nil), k0...)
		copy(k0, k1)
		copy(k1, tmp)
		return true
	}},
}

// flipReserved damages the first byte of reserved record i (a fence key).
func flipReserved(i int) func([]byte, *parityCtx) bool {
	return func(pl []byte, _ *parityCtx) bool {
		r, err := page.ParseRecords(pl)
		if err != nil {
			return false
		}
		f, err := r.ReservedRecord(i)
		if err != nil || len(f) == 0 {
			return false
		}
		f[0] ^= 0x55
		return true
	}
}

func putID(pl []byte, at int, id page.ID) { binary.LittleEndian.PutUint64(pl[at:], uint64(id)) }

// nodeDamages hit every field of the B-tree extension and the fences.
var nodeDamages = []damage{
	{"node/level", func(pl []byte, _ *parityCtx) bool { pl[nodeLevel]++; return true }},
	{"node/flags-foster", func(pl []byte, _ *parityCtx) bool { pl[nodeFlags] ^= 1; return true }},
	{"node/flags-high-inf", func(pl []byte, _ *parityCtx) bool { pl[nodeFlags] ^= 2; return true }},
	{"node/flags-chain-inf", func(pl []byte, _ *parityCtx) bool { pl[nodeFlags] ^= 4; return true }},
	{"node/flags-unknown", func(pl []byte, _ *parityCtx) bool { pl[nodeFlags] |= 0x40; return true }},
	{"node/foster", func(pl []byte, c *parityCtx) bool { putID(pl, nodeFoster, c.otherNode); return true }},
	{"node/child0", func(pl []byte, c *parityCtx) bool { putID(pl, nodeChild0, c.otherNode); return true }},
	{"node/low-fence", flipReserved(0)},
	{"node/high-fence", flipReserved(1)},
	{"node/chain-fence", flipReserved(2)},
}

// branchDamages additionally hit a branch record: its child pointer.
var branchDamages = []damage{
	{"branch/child-pointer", func(pl []byte, c *parityCtx) bool {
		r, err := page.ParseRecords(pl)
		if err != nil || r.Count() == 0 {
			return false
		}
		_, child, _, _ := r.Record(0)
		putID(child, 0, c.otherNode)
		return true
	}},
}

// bucketDamages hit every stamp of the hash extension.
var bucketDamages = []damage{
	{"bucket/number", func(pl []byte, _ *parityCtx) bool { pl[bktNum] ^= 1; return true }},
	{"bucket/level-stamp", func(pl []byte, _ *parityCtx) bool { pl[bktStamp] += 7; return true }},
	{"bucket/directory", func(pl []byte, _ *parityCtx) bool { pl[bktDir]++; return true }},
	{"bucket/next", func(pl []byte, c *parityCtx) bool { putID(pl, bktNext, c.otherBucket); return true }},
	{"bucket/chain-position", func(pl []byte, _ *parityCtx) bool { pl[bktPos]++; return true }},
}

// directoryDamages hit the round state and the bucket table.
var directoryDamages = []damage{
	{"directory/level", func(pl []byte, _ *parityCtx) bool { pl[dirLevel]++; return true }},
	{"directory/next", func(pl []byte, _ *parityCtx) bool { pl[dirNext]++; return true }},
	{"directory/bucket-table", func(pl []byte, _ *parityCtx) bool {
		a, b := pl[dirIDs:dirIDs+8], pl[dirIDs+8:dirIDs+16]
		tmp := append([]byte(nil), a...)
		copy(a, b)
		copy(b, tmp)
		return true
	}},
}

func concat(lists ...[]damage) []damage {
	var out []damage
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// TestDetectionParity is the per-page-kind proof that nothing the deleted
// node codecs caught slips past the in-place layout: for a B-tree leaf and
// branch, a hash bucket, overflow page and directory, every header field,
// every extension field and every class of bad record offset is damaged in
// the STORED image with the page checksum recomputed — so only the
// plausibility checks of §4.2 can notice — and then
//
//   - the read path must report the damage in the right class: the in-page
//     checks at the pool door (page.ErrCorrupt, which btree.ErrNodeCorrupt
//     and hashindex.ErrCorrupt alias), or, for damage only a predecessor
//     can contradict, ErrDetected from the descent's cross-page checks;
//   - through the public API nobody notices: every key reads back, the
//     page is rebuilt online by single-page recovery, its slot is retired,
//     nothing escalates, and both indexes verify clean.
//
// It runs at the smallest page size too, where most engine tests live.
func TestDetectionParity(t *testing.T) {
	for _, pageSize := range []int{512, 8192} {
		t.Run(fmt.Sprintf("page=%d", pageSize), func(t *testing.T) {
			db := openTestDB(t, Options{PageSize: pageSize, DataSlots: 1 << 15, PoolFrames: 1 << 12})
			defer db.Close()
			// Enough keys for overflow chains at either size and, at 512, for
			// a branch level below the root (a branch WITH fence keys).
			n := 4096
			bt := loadIndexKind(t, db, "bt", KindBTree, n)
			hs := loadIndexKind(t, db, "hs", KindHash, n)
			if err := db.FlushAll(); err != nil {
				t.Fatal(err)
			}

			// One victim per page kind: a page with records to damage and,
			// for B-tree nodes, preferably finite non-empty fences (a node
			// in the middle of its level); any other page of the structure
			// serves as the healthy page to mis-point at.
			victims, fenced := map[string]page.ID{}, map[string]bool{}
			ctx := &parityCtx{}
			for _, id := range db.Pages() {
				h, err := db.pool.Fetch(id)
				if err != nil {
					t.Fatal(err)
				}
				pl := h.Page().Payload()
				role := ""
				switch h.Page().Type() {
				case page.TypeBTree:
					role, _ = btree.PageRole(pl)
				case page.TypeHash:
					role, _ = hashindex.PageRole(pl)
				}
				usable, hasFences := role == "directory", false
				if r, err := page.ParseRecords(pl); role != "" && !usable && err == nil && r.Count() >= 3 {
					usable = true
					if r.Reserved() == 3 {
						lo, _ := r.ReservedRecord(0)
						hi, _ := r.ReservedRecord(1)
						hasFences = len(lo) > 0 && len(hi) > 0
					}
				}
				h.Release()
				_, have := victims[role]
				switch {
				case usable && (!have || (hasFences && !fenced[role])):
					victims[role], fenced[role] = id, hasFences
				case role == "leaf" || role == "branch":
					ctx.otherNode = id
				case role == "bucket":
					ctx.otherBucket = id
				}
			}
			if !fenced["leaf"] || (pageSize == 512 && !fenced["branch"]) {
				t.Fatalf("no fenced victims: %v %v", victims, fenced)
			}
			kinds := []struct {
				role    string
				ix      *Index // the index whose reads cross the victim
				damages []damage
			}{
				{"leaf", bt, concat(headerDamages, nodeDamages, offsetDamages)},
				{"branch", bt, concat(headerDamages, nodeDamages, branchDamages, offsetDamages)},
				{"bucket", hs, concat(headerDamages, bucketDamages, offsetDamages)},
				{"overflow", hs, concat(headerDamages, bucketDamages, offsetDamages)},
				{"directory", hs, concat(headerDamages, directoryDamages)},
			}
			for _, kind := range kinds {
				victim, ok := victims[kind.role]
				if !ok || ctx.otherNode == 0 || ctx.otherBucket == 0 {
					t.Fatalf("no %s page to damage (victims %v, ctx %+v)", kind.role, victims, ctx)
				}
				for _, dmg := range kind.damages {
					t.Run(kind.role+"/"+dmg.name, func(t *testing.T) {
						damageAndHeal(t, db, kind.ix, n, victim, dmg, ctx)
					})
				}
			}
		})
	}
}

// damageAndHeal applies one damage to the stored image of victim, a page of
// index ix, and drives it through detection and online repair.
func damageAndHeal(t *testing.T, db *DB, ix *Index, n int, victim page.ID, dmg damage, ctx *parityCtx) {
	if err := db.EvictPage(victim); err != nil {
		t.Fatal(err)
	}
	phys, ok := db.pmap.Lookup(victim)
	if !ok {
		t.Fatalf("page %d has no slot", victim)
	}
	img := db.dev.RawImage(phys)
	plen := int(binary.LittleEndian.Uint32(img[24:]))
	if !dmg.apply(img[page.HeaderSize:page.HeaderSize+plen], ctx) {
		t.Skip("victim has nothing of this shape")
	}
	binary.LittleEndian.PutUint32(img, page.Checksum(img))
	if err := page.Verify(img); err != nil {
		t.Fatalf("damaged image must keep a sound checksum and header: %v", err)
	}
	if err := db.dev.Write(phys, img); err != nil {
		t.Fatal(err)
	}
	before := db.Metrics()

	// Class of detection: the tests every loaded image passes through.
	pg, err := page.DecodeFor(victim, img)
	if err != nil {
		t.Fatal(err)
	}
	doorErr := pg.Check()
	if doorErr == nil {
		doorErr = db.plausibleImage(pg)
	}
	if doorErr != nil {
		if !errors.Is(doorErr, page.ErrCorrupt) || !errors.Is(doorErr, btree.ErrNodeCorrupt) || !errors.Is(doorErr, hashindex.ErrCorrupt) {
			t.Fatalf("in-page detection reports the wrong class: %v", doorErr)
		}
	} else {
		// Sound in isolation: only a descent's cross-page checks can tell.
		// Read through the bare engines (no healing) and demand ErrDetected.
		// Keys n..2n-1 are absent: only a miss walks a whole overflow
		// chain, past a damaged next pointer.
		detected := 0
		for i := 0; i < 2*n; i++ {
			_, err := ix.eng.GetTo(nil, k(i))
			if err == nil || (i >= n && errors.Is(err, ErrNotFound)) {
				continue
			}
			if !errors.Is(err, ErrDetected) {
				t.Fatalf("descent over the damaged page reports the wrong class: %v", err)
			}
			detected++
		}
		if detected == 0 {
			t.Fatal("damage passed every in-page and cross-page check")
		}
	}

	// Through the public API the damage is invisible.
	for i := 0; i < 2*n; i++ {
		got, err := ix.Get(k(i))
		if i < n && (err != nil || !bytes.Equal(got, v(i))) {
			t.Fatalf("get %d = %q, %v", i, got, err)
		}
		if i >= n && !errors.Is(err, ErrNotFound) {
			t.Fatalf("get of absent key %d: %v", i, err)
		}
	}
	if viols, err := ix.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify after repair: %v, %v", viols, err)
	}
	after := db.Metrics()
	if after.Pool.Recoveries == before.Pool.Recoveries {
		t.Error("no single-page recovery ran")
	}
	if after.Pool.Escalations != before.Pool.Escalations || after.Recovery.Escalations != before.Recovery.Escalations {
		t.Errorf("repair escalated: pool %d->%d, recoverer %d->%d", before.Pool.Escalations,
			after.Pool.Escalations, before.Recovery.Escalations, after.Recovery.Escalations)
	}
	if !db.dev.Retired(phys) {
		t.Errorf("damaged slot %d still in service", phys)
	}
}
