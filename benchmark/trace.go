package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval. Spans of one request share req; parent
// is the id of the span that caused this one (0 = root). Times are
// nanoseconds since the recorder was created.
type span struct {
	req, id, parent uint32
	name            uint16
	start, end      int64
}

// recorder keeps spans in memory and writes them out when the benchmark
// ends. It lives in the benchmark only: spans wrap the calls the
// benchmark makes into each layer, not code inside the engine. A nil
// *recorder records nothing, so untraced runs share the call sites.
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	names   []string
	nameIdx map[string]uint16
	spans   []span
	dropped int64
}

// maxSpans bounds the recorder's memory (32 B per span).
const maxSpans = 4 << 20

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), nameIdx: make(map[string]uint16), spans: make([]span, 0, 1<<20)}
}

// begin opens a span and returns its id (0 when not recording).
func (r *recorder) begin(req, parent uint32, name string) uint32 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	ni, ok := r.nameIdx[name]
	if !ok {
		ni = uint16(len(r.names))
		r.names = append(r.names, name)
		r.nameIdx[name] = ni
	}
	id := uint32(len(r.spans) + 1)
	r.spans = append(r.spans, span{req: req, id: id, parent: parent, name: ni, start: now})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id uint32) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	n              int64
	totalNs, selfN int64
}

func (s spanStat) meanUs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.totalNs) / float64(s.n) / 1e3
}

func (s spanStat) selfMeanUs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.selfN) / float64(s.n) / 1e3
}

// stats returns, per span name, the count, the summed duration and the
// summed self time. Self time is a span's duration minus the part of its
// interval that its child spans cover (overlapping children are merged
// before subtracting, so concurrent children are not counted twice).
func (r *recorder) stats() map[string]spanStat {
	out := make(map[string]spanStat)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[uint32][]int)
	for i, s := range r.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for _, s := range r.spans {
		if s.end == 0 {
			continue
		}
		dur := s.end - s.start
		kids := children[s.id]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].start < r.spans[kids[b]].start })
		covered, hi := int64(0), s.start
		for _, k := range kids {
			cs, ce := r.spans[k].start, r.spans[k].end
			if cs < hi {
				cs = hi
			}
			if ce > s.end {
				ce = s.end
			}
			if ce > cs {
				covered += ce - cs
				hi = ce
			}
		}
		st := out[r.names[s.name]]
		st.n++
		st.totalNs += dur
		st.selfN += dur - covered
		out[r.names[s.name]] = st
	}
	return out
}

// writeJSONL writes one JSON object per span:
// {"req":..,"id":..,"parent":..,"name":"..","start_ns":..,"end_ns":..}.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		err = enc.Encode(struct {
			Req    uint32 `json:"req"`
			ID     uint32 `json:"id"`
			Parent uint32 `json:"parent"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.req, s.id, s.parent, r.names[s.name], s.start, s.end})
		if err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
