package pageop

import (
	"errors"
	"fmt"

	"repro/internal/page"
)

// The outcomes every index operation of either engine can report, declared
// once so that errors.Is and errors.As read the same above the Engine seam
// whichever engine ran.
var (
	ErrKeyNotFound = errors.New("index: key not found")
	ErrKeyExists   = errors.New("index: key already exists")
	// ErrDetected is wrapped by every CorruptionError.
	ErrDetected = errors.New("index: cross-page invariant violation detected")
)

// CorruptionError reports a failed cross-page invariant check during a
// descent — the continuous self-testing of §4.2: fence keys against the
// parent's separators in the B-tree, bucket and level stamps against the
// directory in the hash index.
type CorruptionError struct {
	// Page failed to carry what its predecessor predicted.
	Page page.ID
	// Via is that predecessor — the parent or foster parent whose routing
	// led to Page, the directory, or the previous page of an overflow chain
	// (InvalidID at a root). A cross-page check implicates the pair: the
	// damage may sit in either page.
	Via    page.ID
	Detail string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("%v: page %d: %s", ErrDetected, e.Page, e.Detail)
}

// Unwrap makes errors.Is(err, ErrDetected) work.
func (e *CorruptionError) Unwrap() error { return ErrDetected }
