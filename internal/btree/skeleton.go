package btree

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/buffer"
	"repro/internal/page"
)

// skeleton is an owned, immutable routing summary of one branch node:
// its fences, foster pointer, child pointers, and separators, every byte
// deep-copied out of the page payload. It is built once per stable frame
// version (under a shared latch, so the copy is consistent) and cached on
// the buffer frame via Handle.StoreSkeleton; because the frame version
// bumps on every exclusive latch acquisition, a skeleton's stamp going
// stale IS its invalidation — no mutation path has to know skeletons
// exist.
//
// The optimistic descent routes through skeletons with no latch at all,
// so the one rule that keeps §4.2 detection exact is: never act on
// skeleton data without re-checking the frame version afterwards
// (Handle.ValidateVersion). A skeleton whose version no longer matches
// may describe a node that has since split, adopted, or been rewritten;
// the re-check turns that into a silent fallback to the latched crab,
// which re-verifies every fence authoritatively.
type skeleton struct {
	level    uint16
	low      fence
	high     fence
	chain    fence
	foster   page.ID
	children []page.ID
	seps     [][]byte
}

func (sk *skeleton) hasFoster() bool { return sk.foster != page.InvalidID }

// buildSkeleton copies a branch page's routing state, read through the
// record layout, into an owning skeleton. The caller must hold at least the
// page's shared latch: the parse reads the payload bytes directly, and only
// the latch guarantees a consistent snapshot to copy from.
func buildSkeleton(payload []byte) (*skeleton, error) {
	n, err := parseNode(payload)
	if err != nil {
		return nil, err
	}
	if n.isLeaf() {
		return nil, fmt.Errorf("%w: skeleton of a leaf", ErrNodeCorrupt)
	}
	sk := &skeleton{
		level:    n.level,
		low:      n.low.clone(),
		high:     n.high.clone(),
		chain:    n.chain.clone(),
		foster:   n.foster,
		children: make([]page.ID, n.fanout()),
		seps:     make([][]byte, n.Count()),
	}
	for i := range sk.children {
		if sk.children[i], err = n.child(i); err != nil {
			return nil, err
		}
	}
	for i := range sk.seps {
		sep, _, _, err := n.Record(i)
		if err != nil {
			return nil, err
		}
		sk.seps[i] = append([]byte(nil), sep...)
	}
	return sk, nil
}

// childFor routes key through the skeleton by binary search over the
// separators, returning the child and the fences the child is expected
// to carry — the same redundancy node.childFor derives, against the
// same §4.2 verification. The returned fences alias the skeleton, which
// is immutable, so they stay valid without any latch.
func (sk *skeleton) childFor(key []byte) (childID page.ID, expLow, expHigh fence) {
	i := sort.Search(len(sk.seps), func(j int) bool {
		return bytes.Compare(key, sk.seps[j]) < 0
	})
	expLow = sk.low
	if i > 0 {
		expLow = finite(sk.seps[i-1])
	}
	expHigh = sk.high
	if i < len(sk.seps) {
		expHigh = finite(sk.seps[i])
	}
	return sk.children[i], expLow, expHigh
}

// skeletonFor returns the branch skeleton of h's page as of stable frame
// version ver, building and caching it on a miss. Returns nil when the
// optimistic reader should fall back: the page is contended (a writer
// holds or grabs the latch mid-build), the cached version moved on, or
// the payload does not parse as a branch.
func skeletonFor(h *buffer.Handle, ver uint64) *skeleton {
	if c := h.CachedSkeleton(ver); c != nil {
		return c.(*skeleton)
	}
	// Cache miss: build under a non-blocking shared latch. TryRLock keeps
	// the optimistic path wait-free — a held exclusive latch means a
	// writer is active and the version would fail validation anyway.
	if !h.TryRLock() {
		return nil
	}
	// Under the shared latch no writer can be active, so the version is
	// even and pinned for the duration of the build; it may still differ
	// from ver if a writer slipped in between the caller's StableVersion
	// and our TryRLock.
	cur, _ := h.StableVersion()
	if cur != ver {
		h.RUnlock()
		return nil
	}
	sk, err := buildSkeleton(h.Page().Payload())
	h.RUnlock()
	if err != nil {
		return nil
	}
	h.StoreSkeleton(ver, sk)
	return sk
}
