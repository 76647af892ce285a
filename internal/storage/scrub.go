package storage

import (
	"repro/internal/page"
)

// ScrubResult reports the outcome of one scrubbing pass.
type ScrubResult struct {
	// Scanned counts slots examined.
	Scanned int
	// ReadErrors lists slots whose read failed outright.
	ReadErrors []PhysID
	// ChecksumErrors lists slots whose image failed in-page verification.
	ChecksumErrors []PhysID
}

// Failures returns all slots found bad, in slot order.
func (r ScrubResult) Failures() []PhysID {
	out := make([]PhysID, 0, len(r.ReadErrors)+len(r.ChecksumErrors))
	out = append(out, r.ReadErrors...)
	out = append(out, r.ChecksumErrors...)
	return out
}

// Scrub re-reads every written slot and verifies its in-page checksum,
// implementing the "disk scrubbing" the paper cites (§1) as the discoverer
// of most latent sector errors. skip reports slots the caller knows are not
// page-formatted (e.g., free); it may be nil.
func (d *Device) Scrub(skip func(PhysID) bool) ScrubResult {
	res, _, _ := d.ScrubRange(0, d.Slots(), skip)
	return res
}

// ScrubRange is the incremental form of Scrub: it examines up to max slot
// positions starting at start (clamped into range) and stops at the end of
// the written extent — the slot table, which ends at the highest slot ever
// written — without wrapping. No slot past it holds an image, so a sweep
// costs what was written, not the capacity. It returns the scrub result,
// the cursor for the next call (0 when the pass reached the extent's end),
// and whether this call completed a full sweep (reached the end of a
// non-empty extent: on a device nothing was written to, no sweep
// completes). A background scrub campaign calls it on a paced tick, so
// latent errors surface continuously instead of only when someone
// remembers to run a full pass.
func (d *Device) ScrubRange(start PhysID, max int, skip func(PhysID) bool) (ScrubResult, PhysID, bool) {
	var res ScrubResult
	if max <= 0 {
		return res, start, false
	}
	n := d.extent()
	if int(start) >= n {
		start = 0
	}
	end := int(start) + max
	if end > n {
		end = n
	}
	img := make([]byte, d.pageSize) // one read buffer for the whole call
	for i := int(start); i < end; i++ {
		id := PhysID(i)
		if d.Retired(id) {
			continue
		}
		if skip != nil && skip(id) {
			continue
		}
		d.mu.RLock()
		written := d.stored(id) != nil
		d.mu.RUnlock()
		if !written {
			continue
		}
		res.Scanned++
		d.stats.scrubs.Add(1)
		if err := d.ReadInto(id, img); err != nil {
			res.ReadErrors = append(res.ReadErrors, id)
			continue
		}
		if err := page.Verify(img); err != nil {
			res.ChecksumErrors = append(res.ChecksumErrors, id)
		}
	}
	if end >= n {
		return res, 0, n > 0
	}
	return res, PhysID(end), false
}
