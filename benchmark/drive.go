package main

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"plp/client"
	"plp/plan"
	"plp/wire"
)

// op is one generated transaction and what its checks need to know.
type op struct {
	p     *plan.Plan
	write bool
	sid   uint64 // TATP subscriber id
	val   int64  // TATP: the new VLR location; TPC-B: the balance delta
}

// gen is one generator goroutine's deterministic transaction stream: the
// same seed and index give the same sequence of transactions.
type gen struct {
	ns         uint64 // namespace of the stream's unique ids (TPC-B history keys)
	rng        *rand.Rand
	writeShare float64 // share of write transactions in this stream
	seq        uint64  // transactions generated so far
	next       func(g *gen) op
}

func newGen(idx int, seed int64, writeShare float64, next func(g *gen) op) *gen {
	return &gen{ns: uint64(idx), rng: rand.New(rand.NewSource(seed*7919 + int64(idx))), writeShare: writeShare, next: next}
}

// op draws the stream's next transaction.
func (g *gen) op() op {
	o := g.next(g)
	g.seq++
	return o
}

// verdict classifies one request's outcome.
type verdict int

const (
	committed verdict = iota
	aborted           // the server aborted it: known not applied
	unknown           // transport error: it may or may not have committed
	wrong             // it committed but returned a wrong result
)

// checker judges a response and records what the later durability checks
// need (acknowledged writes).  It is called from many goroutines at once.
type checker func(o op, resp *wire.Response, err error) verdict

// sample is one committed transaction.
type sample struct {
	due, done time.Time
	write     bool
}

// ms is the sample's latency in milliseconds, from its due time.
func (s sample) ms() float64 { return float64(s.done.Sub(s.due).Nanoseconds()) / 1e6 }

// phase aggregates one measured phase.
type phase struct {
	samples []sample
	late    []float64 // ms, how late the sender submitted each request

	attempted, failed, committed, writes int
	unknown, wrong                       int
	start                                time.Time
	elapsed                              time.Duration
}

func (p *phase) merge(q *phase) {
	p.samples = append(p.samples, q.samples...)
	p.late = append(p.late, q.late...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.committed += q.committed
	p.writes += q.writes
	p.unknown += q.unknown
	p.wrong += q.wrong
	if q.elapsed > p.elapsed {
		p.elapsed = q.elapsed
	}
	if !q.start.IsZero() && (p.start.IsZero() || q.start.Before(p.start)) {
		p.start = q.start
	}
}

// tickEvery is the open-loop sender's pacing tick.  Requests carry exact
// due times, so the tick only bounds how late a request can be sent when
// the sender is idle.
const tickEvery = 100 * time.Microsecond

// load describes one generator's share of a phase.
type load struct {
	c      *client.Client
	g      *gen
	window int
	// Open loop: count requests, the i-th due at start + i/rate.
	// Closed loop (rate 0): keep window requests in flight for dur.
	rate  float64
	count int
	dur   time.Duration
	start time.Time
	check checker
	tr    *tracer
}

// drive runs one generator's share of a phase on its connection and waits
// for every request it sent.  Each request is timed from its due time (its
// send time in a closed loop), so a stall is charged to every request
// queued behind it.
func drive(ctx context.Context, l load) *phase {
	type item struct {
		o         op
		f         *client.Future
		due, sent time.Time
		submitted time.Time
	}
	slots := make(chan struct{}, l.window)
	// items is sized to the window: at most window requests are in flight,
	// so the sender never blocks on it.
	items := make(chan item, l.window)
	parts := make([]*phase, l.window)
	var wg sync.WaitGroup
	for w := range parts {
		res := &phase{}
		parts[w] = res
		wg.Add(1)
		go func() {
			defer wg.Done()
			var spans []span
			for it := range items {
				resp, err := it.f.Result()
				done := time.Now()
				<-slots
				res.attempted++
				switch l.check(it.o, resp, err) {
				case committed:
					res.committed++
					res.samples = append(res.samples, sample{due: it.due, done: done, write: it.o.write})
					if it.o.write {
						res.writes++
					}
				case aborted:
					res.failed++
				case unknown:
					res.failed++
					res.unknown++
				case wrong:
					res.failed++
					res.wrong++
				}
				res.late = append(res.late, float64(it.sent.Sub(it.due).Nanoseconds())/1e6)
				if l.tr != nil {
					req := l.tr.newID()
					root := l.tr.newID()
					spans = append(spans,
						span{id: root, req: req, name: "request", start: it.due, end: done},
						span{id: l.tr.newID(), parent: root, req: req, name: "client.submit", start: it.sent, end: it.submitted},
						span{id: l.tr.newID(), parent: root, req: req, name: "client.wait", start: it.submitted, end: done})
				}
			}
			l.tr.merge(spans)
		}()
	}

	var tick *time.Ticker
	if l.rate > 0 {
		tick = time.NewTicker(tickEvery)
		defer tick.Stop()
	}
	for i := 0; ; i++ {
		var due time.Time
		if l.rate > 0 {
			if i >= l.count {
				break
			}
			due = l.start.Add(time.Duration(float64(i) * float64(time.Second) / l.rate))
		} else if time.Since(l.start) >= l.dur {
			break
		}
		o := l.g.op()
		for l.rate > 0 && time.Now().Before(due) {
			<-tick.C
		}
		slots <- struct{}{}
		sent := time.Now()
		if l.rate == 0 {
			due = sent
		}
		f := l.c.DoPlanAsync(ctx, o.p)
		items <- item{o: o, f: f, due: due, sent: sent, submitted: time.Now()}
	}
	close(items)
	wg.Wait()
	total := &phase{start: l.start, elapsed: time.Since(l.start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// runPhase drives every load concurrently and merges their results.
func runPhase(ctx context.Context, loads []load) *phase {
	out := make([]*phase, len(loads))
	var wg sync.WaitGroup
	for i := range loads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = drive(ctx, loads[i])
		}()
	}
	wg.Wait()
	total := &phase{}
	for _, p := range out {
		total.merge(p)
	}
	return total
}

// latencies returns the latencies, in ms, of the samples due in [from, to),
// optionally writes only, sorted.
func (p *phase) latencies(from, to time.Time, writesOnly bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if (writesOnly && !s.write) || s.due.Before(from) || !s.due.Before(to) {
			continue
		}
		out = append(out, s.ms())
	}
	return sortedCopy(out)
}

// windowStats returns stat over each of the n windows' sorted latencies.
func (p *phase) windowStats(start time.Time, win time.Duration, n int, writesOnly bool, stat func([]float64) float64) []float64 {
	vals := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		from := start.Add(time.Duration(i) * win)
		vals = append(vals, stat(p.latencies(from, from.Add(win), writesOnly)))
	}
	return vals
}

// windowRates returns the transactions completed per second in each of n
// windows of win from start.
func (p *phase) windowRates(start time.Time, win time.Duration, n int) []float64 {
	counts := make([]float64, n)
	for _, s := range p.samples {
		i := int(s.done.Sub(start) / win)
		if i >= 0 && i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= win.Seconds()
	}
	return counts
}
