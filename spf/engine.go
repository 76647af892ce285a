package spf

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/hashindex"
	"repro/internal/page"
	"repro/internal/txn"
)

// IndexKind selects the storage engine behind a named index. The paper's
// machinery — checksums, the page recovery index, per-page chains, instant
// restart/restore — is a property of the page and log layers, so any
// engine that stores checksummed pages and logs through the shared WAL
// inherits all of it; IndexKind picks which one organizes the keys.
type IndexKind uint8

const (
	// KindBTree is the Foster B-tree: ordered keys, range scans in key
	// order, fence-key cross-checks (§4.2).
	KindBTree IndexKind = iota
	// KindHash is the linear-hashing index: point-op oriented, scans in
	// bucket order, bucket/level-stamp cross-checks standing in for
	// fences.
	KindHash
)

func (k IndexKind) String() string {
	switch k {
	case KindBTree:
		return "btree"
	case KindHash:
		return "hash"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseIndexKind parses the names String produces.
func ParseIndexKind(s string) (IndexKind, error) {
	switch s {
	case "btree", "":
		return KindBTree, nil
	case "hash":
		return KindHash, nil
	default:
		return 0, fmt.Errorf("spf: unknown index kind %q", s)
	}
}

// EngineCounters is the engine-neutral structural-churn snapshot. B-tree
// engines populate the first five fields, hash engines the last two; the
// rest read zero.
type EngineCounters struct {
	// Splits, Adoptions, RootGrows count Foster B-tree structural changes.
	Splits    int64
	Adoptions int64
	RootGrows int64
	// OptimisticHits and OptimisticFallbacks split B-tree point reads by
	// whether they completed latch-free on the branch levels.
	OptimisticHits      int64
	OptimisticFallbacks int64
	// BucketSplits counts linear-hashing split rounds; OverflowPages
	// counts overflow pages linked into bucket chains.
	BucketSplits  int64
	OverflowPages int64
}

// Engine is the seam between the spf layer and a storage structure: the
// operations CreateIndex wires to the shared pool, WAL, maintenance, and
// restore paths. Both internal/btree and internal/hashindex implement it
// (via thin adapters); everything below this interface — detection,
// repair, restart, media restore, scrubbing — is engine-agnostic.
type Engine interface {
	Name() string
	Root() PageID
	Kind() IndexKind
	Insert(t *Txn, key, val []byte) error
	Update(t *Txn, key, val []byte) error
	Delete(t *Txn, key []byte) error
	GetTo(dst, key []byte) ([]byte, error)
	// Scan visits live entries with start <= key < end. B-tree engines
	// emit key order; hash engines emit bucket order (sorted within each
	// bucket).
	Scan(start, end []byte, fn func(Entry) bool) error
	Verify() ([]string, error)
	Counters() EngineCounters
}

// btreeEngine adapts *btree.Tree to Engine.
type btreeEngine struct{ tree *btree.Tree }

func (e btreeEngine) Name() string                          { return e.tree.Name() }
func (e btreeEngine) Root() PageID                          { return e.tree.Root() }
func (e btreeEngine) Kind() IndexKind                       { return KindBTree }
func (e btreeEngine) Insert(t *Txn, key, val []byte) error  { return e.tree.Insert(t, key, val) }
func (e btreeEngine) Update(t *Txn, key, val []byte) error  { return e.tree.Update(t, key, val) }
func (e btreeEngine) Delete(t *Txn, key []byte) error       { return e.tree.Delete(t, key) }
func (e btreeEngine) GetTo(dst, key []byte) ([]byte, error) { return e.tree.GetTo(dst, key) }
func (e btreeEngine) Scan(start, end []byte, fn func(Entry) bool) error {
	return e.tree.Scan(start, end, fn)
}

func (e btreeEngine) Verify() ([]string, error) {
	viols, err := e.tree.VerifyAll()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(viols))
	for i, v := range viols {
		out[i] = v.String()
	}
	return out, nil
}

func (e btreeEngine) Counters() EngineCounters {
	var c EngineCounters
	c.Splits, c.Adoptions, c.RootGrows = e.tree.Counters()
	c.OptimisticHits, c.OptimisticFallbacks = e.tree.OptimisticStats()
	return c
}

// hashEngine adapts *hashindex.Table to Engine.
type hashEngine struct{ table *hashindex.Table }

func (e hashEngine) Name() string                          { return e.table.Name() }
func (e hashEngine) Root() PageID                          { return e.table.Root() }
func (e hashEngine) Kind() IndexKind                       { return KindHash }
func (e hashEngine) Insert(t *Txn, key, val []byte) error  { return e.table.Insert(t, key, val) }
func (e hashEngine) Update(t *Txn, key, val []byte) error  { return e.table.Update(t, key, val) }
func (e hashEngine) Delete(t *Txn, key []byte) error       { return e.table.Delete(t, key) }
func (e hashEngine) GetTo(dst, key []byte) ([]byte, error) { return e.table.GetTo(dst, key) }
func (e hashEngine) Scan(start, end []byte, fn func(Entry) bool) error {
	return e.table.Scan(start, end, func(k, v []byte) bool {
		return fn(Entry{Key: k, Value: v})
	})
}

func (e hashEngine) Verify() ([]string, error) {
	viols, err := e.table.VerifyAll()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(viols))
	for i, v := range viols {
		out[i] = v.String()
	}
	return out, nil
}

func (e hashEngine) Counters() EngineCounters {
	var c EngineCounters
	c.BucketSplits, c.OverflowPages = e.table.Counters()
	return c
}

// rootKind reads the engine of the index rooted at root off its root page,
// whose type is the engine tag: hash directories are TypeHash, B-tree roots
// TypeBTree. The catalog reopen and undo dispatch on it.
func (db *DB) rootKind(root page.ID) (IndexKind, error) {
	h, err := db.pool.Fetch(root)
	if err != nil {
		return 0, err
	}
	typ := h.Page().Type()
	h.Release()
	if typ == page.TypeHash {
		return KindHash, nil
	}
	return KindBTree, nil
}

// openEngine attaches the right engine to an already-created index rooted
// at root — the catalog-reopen dispatch.
func (db *DB) openEngine(name string, root page.ID) (Engine, error) {
	kind, err := db.rootKind(root)
	if err != nil {
		return nil, err
	}
	if kind == KindHash {
		return hashEngine{hashindex.Open(name, root, db)}, nil
	}
	return btreeEngine{btree.Open(name, root, db)}, nil
}

// createEngine builds a fresh engine of the given kind under st.
func (db *DB) createEngine(st *txn.Txn, name string, kind IndexKind) (Engine, error) {
	switch kind {
	case KindHash:
		tb, err := hashindex.Create(st, name, db)
		if err != nil {
			return nil, err
		}
		return hashEngine{tb}, nil
	default:
		tr, err := btree.Create(st, name, db)
		if err != nil {
			return nil, err
		}
		return btreeEngine{tr}, nil
	}
}
