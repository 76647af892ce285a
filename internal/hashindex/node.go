// Package hashindex implements a page-based linear-hashing index over the
// same page format, buffer pool, WAL, and single-page-recovery machinery as
// the Foster B-tree — the second engine that proves the substrate
// generalizes. Bucket and overflow pages are ordinary checksummed pages
// (internal/page) whose payloads carry hash-specific redundancy standing in
// for the B-tree's fence keys (paper §4.2):
//
//	check                                  detects
//	bucket-number stamp vs directory slot  stale or swapped bucket image
//	level stamp vs directory round         image from before/after a split
//	directory back-pointer                 bucket of a different index
//	overflow chain position sequencing     broken or cyclic overflow chain
//	next pointer != self                   trivial chain cycle
//	entry hash maps to its bucket          misplaced record (Verify)
//
// Every check compares in-page information against expectations derived
// from a still-latched predecessor (the directory, or the previous chain
// page), exactly the discipline that makes the B-tree's fence checks sound
// under concurrency. All mutations log through the existing WAL record set
// (TypeFormat, TypeUpdate, CLRs) in a disjoint opcode namespace, so chain
// replay, instant restart, media restore, and scrubbing work on hash pages
// without modification.
package hashindex

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/page"
	"repro/internal/pageop"
)

// Errors surfaced by the hash index. ErrCorrupt is the shared layout error,
// so a violation reads the same whether the layout (internal/page) or the
// hash header check found it; the operation outcomes are the ones both
// engines share (internal/pageop).
var (
	ErrCorrupt     = page.ErrCorrupt
	ErrKeyNotFound = pageop.ErrKeyNotFound
	ErrKeyExists   = pageop.ErrKeyExists
	ErrDetected    = pageop.ErrDetected
	// ErrValueTooLarge reports an entry that cannot fit a bucket page.
	ErrValueTooLarge = errors.New("hashindex: key/value too large for page")
)

// CorruptionError is the shared cross-page check failure.
type CorruptionError = pageop.CorruptionError

// directory is the parsed header of the latched directory page, an array
// page (internal/page IDArray) of kind KindDirectory read in place: the
// linear-hashing state (round level L, next bucket N to split) in the
// extension, and the bucket-number → primary-page table as the array.
// Bucket b of a key with hash h is h mod 2^L, rehashed mod 2^(L+1) when
// that bucket was already split this round (b < N).
//
// Extension: level u32, next u32.
type directory struct {
	page.IDArray
	level uint32
	next  uint32
}

const dirExtSize = 4 + 4

func (d *directory) bucketOf(h uint64) int {
	b := int(h & (1<<d.level - 1))
	if b < int(d.next) {
		b = int(h & (1<<(d.level+1) - 1))
	}
	return b
}

// newDirectoryPayload builds a directory page payload.
func newDirectoryPayload(level, next uint32, buckets []page.ID) []byte {
	ext := make([]byte, dirExtSize)
	binary.LittleEndian.PutUint32(ext, level)
	binary.LittleEndian.PutUint32(ext[4:], next)
	return page.NewIDArray(page.KindDirectory, ext, buckets)
}

// parseDirectory reads the directory page's header and runs every check a
// directory admits — all O(1): layout kind, extension shape, round state
// in range, and the slot count the round state implies.
func parseDirectory(payload []byte) (directory, error) {
	a, err := page.ParseIDArray(payload)
	if err != nil {
		return directory{}, err
	}
	ext := a.Ext()
	if a.Kind() != page.KindDirectory || len(ext) != dirExtSize {
		return directory{}, fmt.Errorf("%w: not a directory page", ErrCorrupt)
	}
	d := directory{IDArray: a, level: binary.LittleEndian.Uint32(ext), next: binary.LittleEndian.Uint32(ext[4:])}
	if d.level == 0 || d.level > 32 {
		return directory{}, fmt.Errorf("%w: directory level %d", ErrCorrupt, d.level)
	}
	if uint64(d.next) >= 1<<d.level {
		return directory{}, fmt.Errorf("%w: directory next %d at level %d", ErrCorrupt, d.next, d.level)
	}
	if want := uint64(1)<<d.level + uint64(d.next); uint64(d.Len()) != want {
		return directory{}, fmt.Errorf("%w: directory holds %d buckets, level %d next %d implies %d",
			ErrCorrupt, d.Len(), d.level, d.next, want)
	}
	return d, nil
}

// buckets copies the bucket table out, for walks that outlive the latch.
func (d *directory) buckets() []page.ID {
	ids := make([]page.ID, d.Len())
	for i := range ids {
		ids[i] = d.At(i)
	}
	return ids
}

// bucket is the parsed header of a latched bucket or overflow page, a
// record page (internal/page Records) of kind KindBucket operated on in
// place; deleted entries linger as ghost records (§5.1.5) so logical undo
// can find them, and system transactions reclaim the space when a page
// fills. The extension carries the cross-check stamps (the hash rendering
// of the B-tree's fences): which bucket this page belongs to, the hashing
// round it was last rewritten under, which directory owns it, the next
// chain page, and its position in the overflow chain. Like the B-tree's
// node it is valid only under the page latch and stale after any op on the
// page.
//
// Extension: bucketNum u32, levelStamp u32, dir u64, next u64, chainPos u32.
type bucket struct {
	page.Records
	bucketNum  uint32
	levelStamp uint32
	dir        page.ID
	next       page.ID
	chainPos   uint32
}

const bucketExtSize = 4 + 4 + 8 + 8 + 4

// bucketExt encodes the stamps.
func bucketExt(bucketNum, levelStamp uint32, dir, next page.ID, chainPos uint32) []byte {
	ext := make([]byte, bucketExtSize)
	binary.LittleEndian.PutUint32(ext, bucketNum)
	binary.LittleEndian.PutUint32(ext[4:], levelStamp)
	binary.LittleEndian.PutUint64(ext[8:], uint64(dir))
	binary.LittleEndian.PutUint64(ext[16:], uint64(next))
	binary.LittleEndian.PutUint32(ext[24:], chainPos)
	return ext
}

// emptyBucketSize is the payload size of a bucket page with no entries.
const emptyBucketSize = page.LayoutHeaderSize + bucketExtSize

// maxEntrySize bounds one entry so chain packing always makes progress.
func maxEntrySize(capacity int) int { return capacity / 4 }

// parseBucket reads a bucket page's header: layout kind and extension
// shape, the first cross-check of every read — a misdirected write of a
// foreign page fails here even when its checksum is intact. Record offsets
// are bounds-checked as they are dereferenced; the whole-page structure was
// validated by page.Check when the image entered the pool.
func parseBucket(payload []byte) (bucket, error) {
	r, err := page.ParseRecords(payload)
	if err != nil {
		return bucket{}, err
	}
	ext := r.Ext()
	if r.Kind() != page.KindBucket || len(ext) != bucketExtSize || r.Reserved() != 0 {
		return bucket{}, fmt.Errorf("%w: not a bucket page", ErrCorrupt)
	}
	return bucket{
		Records:    r,
		bucketNum:  binary.LittleEndian.Uint32(ext),
		levelStamp: binary.LittleEndian.Uint32(ext[4:]),
		dir:        page.ID(binary.LittleEndian.Uint64(ext[8:])),
		next:       page.ID(binary.LittleEndian.Uint64(ext[16:])),
		chainPos:   binary.LittleEndian.Uint32(ext[24:]),
	}, nil
}

// PageRole classifies a hash page payload for tests and tooling:
// "directory", "bucket" (a chain head), or "overflow" (chain position
// beyond the head).
func PageRole(payload []byte) (string, error) {
	if len(payload) > 0 && payload[0] == page.KindDirectory {
		if _, err := parseDirectory(payload); err != nil {
			return "", err
		}
		return "directory", nil
	}
	n, err := parseBucket(payload)
	if err != nil {
		return "", err
	}
	if n.chainPos > 0 {
		return "overflow", nil
	}
	return "bucket", nil
}

// hashKey is the bucket hash: FNV-1a over the key bytes.
func hashKey(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
