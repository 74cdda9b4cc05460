package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own call site.  Spans of one request share req; parent is the id of
// the span that caused this one (0 for a root).
type span struct {
	id, parent, req uint64
	name            string
	start, end      time.Time
}

// tracer keeps spans in memory for the whole run; they are written out
// once, at the end, so recording costs two clock reads and an append.  A nil
// *tracer records nothing, which is how untraced runs skip every span.
type tracer struct {
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// newID returns a fresh span or request id (0 on a nil tracer).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record appends one span and returns its id.
func (t *tracer) record(parent, req uint64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	id := t.ids.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, req: req, name: name, start: start, end: end})
	t.mu.Unlock()
	return id
}

// merge appends a batch of spans collected without the lock.
func (t *tracer) merge(batch []span) {
	if t == nil || len(batch) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, batch...)
	t.mu.Unlock()
}

// durations returns the durations, in microseconds, of every span named
// name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end.Sub(s.start).Nanoseconds())/1e3)
		}
	}
	return out
}

// selfTime is one layer's aggregate self time.
type selfTime struct {
	count int
	total time.Duration
}

// selfTimes computes each span name's self time: the span's duration minus
// the part of that interval its child spans cover.
func (t *tracer) selfTimes() map[string]selfTime {
	out := make(map[string]selfTime)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]int)
	for i, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for _, s := range t.spans {
		self := s.end.Sub(s.start) - covered(s, children[s.id], t.spans)
		st := out[s.name]
		st.count++
		st.total += self
		out[s.name] = st
	}
	return out
}

// covered returns how much of parent's interval the union of the given
// child spans covers.
func covered(parent span, kids []int, spans []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// write stores every span as one tab-separated line: id, parent, request
// id, name, and start and end in nanoseconds since the first span began.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var epoch time.Time
	for _, s := range t.spans {
		if epoch.IsZero() || s.start.Before(epoch) {
			epoch = s.start
		}
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "id\tparent\treq\tname\tstart_ns\tend_ns\n")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, s.name,
			s.start.Sub(epoch).Nanoseconds(), s.end.Sub(epoch).Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
