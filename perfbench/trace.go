package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one traced call from the benchmark into a module's public
// function. Parent is the enclosing span's id (0 at the top level); Op
// groups the spans of one attack, kernel flow or job.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Op     string        `json:"op"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer is tracing off: every method is a no-op.
type tracer struct {
	t0 time.Time
	// clock is the median cost of reading the clock twice, which a timed
	// call's measured duration includes.
	clock time.Duration
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	var ds [1001]time.Duration
	for i := range ds {
		t := time.Now()
		ds[i] = time.Since(t)
	}
	slices.Sort(ds[:])
	return &tracer{t0: time.Now(), clock: ds[len(ds)/2]}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name, op string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its child spans cover. Overlapping children (concurrent
// calls) count once, and a child sticking out of its parent counts only
// inside it. Unclosed spans are skipped.
func selfTimes(spans []span) map[string]time.Duration {
	type iv struct{ lo, hi time.Duration }
	children := map[int][]iv{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.lo, reach), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}
