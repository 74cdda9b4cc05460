// Command plp-e2e-bench is the repository's end-to-end benchmark.  For one
// workload it opens a durable PLP-Leaf engine, loads and checkpoints it,
// serves it over loopback with internal/server and drives it with the
// client package: first an open loop at a fixed arrival rate, then a closed
// loop at a fixed in-flight window.  It checks every response and, after the run, the
// durability of every acknowledged write on a recovered copy of the data
// directory, and prints its metrics as one JSON object on the last line of
// standard output.
//
//	bash benchmark/run.sh --workload tatp-read-mostly --seed 1 --seconds 12 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run that records spans around the benchmark's calls into each
// layer and prints the per-layer metrics.  Layers are measured from outside
// only: counters come from their public Stats/snapshot functions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"plp/client"
	"plp/internal/engine"
	"plp/internal/latch"
	"plp/internal/txn"
	"plp/internal/wal"
	"plp/plan"
	"plp/wire"
)

const (
	// window is each connection's in-flight limit, in both loops.
	window = 16
	// warmup precedes each measured phase.
	warmup = time.Second
	// Set-up and recovery are repeated, and the medians reported: at least
	// minRepeats times, and more while the repeats so far took less than
	// repeatBudget, up to maxRepeats.  Cheap set-ups are repeated more, so
	// every workload's median rests on a few seconds of work.
	minRepeats   = 3
	maxRepeats   = 15
	repeatBudget = 3 * time.Second
	// wirePlans is how many generated plans the wire timing encodes and
	// decodes.
	wirePlans = 20_000
	// samplePeriod is the replication sampler's period.
	samplePeriod = 100 * time.Millisecond
	// replicaRate is the open-loop rate of the traced run's replicated
	// phase, in transactions per second.
	replicaRate = 5000
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: tatp-read-mostly or tpcb-durable")
		seed    = flag.Int64("seed", 1, "seed of the generated transactions")
		seconds = flag.Int("seconds", 10, "measured seconds, split evenly between the open and the closed loop")
		traced  = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		root    = flag.String("root", ".", "repository root, for provenance")
		work    = flag.String("work", ".bench_build/run", "directory for data directories and traces")
	)
	flag.Parse()
	sp, ok := findSpec(*name)
	if !ok || *seconds < 2 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: --workload <name> --seed <n> --seconds <n ≥ 2> --trace <0|1>; unknown workload %q\n", *name)
		return 2
	}
	runtime.GOMAXPROCS(2)
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	env := readEnvironment(*root, *work)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)

	r, err := runWorkload(runConfig{sp: sp, seed: *seed, seconds: *seconds, traced: *traced == 1, work: *work})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", sp.name, err)
		return 1
	}
	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

type runConfig struct {
	sp      spec
	seed    int64
	seconds int
	traced  bool
	work    string
}

// sampler watches a replicated system every samplePeriod: the quorum-ack
// watermark must never pass the primary's durable LSN, and the follower's
// apply lag is recorded.
type sampler struct {
	stop       chan struct{}
	done       chan struct{}
	violations atomic.Int64
	lags       []float64
}

func startSampler(s *system) *sampler {
	sm := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			select {
			case <-sm.stop:
				return
			case <-t.C:
			}
			// Read the watermark before the durable LSN: the durable LSN
			// only grows, so a later read can never make a sound state
			// look broken.
			st := s.hub.Status()
			applied := s.follower.Status().Applier.AppliedLSN
			durable := uint64(s.hub.DurableLSN())
			if st.QuorumAcked > durable {
				sm.violations.Add(1)
				fmt.Fprintf(os.Stderr, "invariant broken: QuorumAcked %d > DurableLSN %d\n", st.QuorumAcked, durable)
			}
			lag := 0.0
			if durable > applied {
				lag = float64(durable - applied)
			}
			sm.lags = append(sm.lags, lag)
		}
	}()
	return sm
}

func (sm *sampler) close() {
	close(sm.stop)
	<-sm.done
}

// runWorkload makes one run: set-up, open loop, closed loop, the traced
// extras, live checks, then recovery and the durability checks.
func runWorkload(cfg runConfig) (*result, error) {
	sp := cfg.sp
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if cfg.traced {
		tr = &tracer{}
	}
	b := sp.newBench()
	began := time.Now()
	stage := func(what string) {
		hwm, _ := peakRSSMB()
		fmt.Fprintf(os.Stderr, "%6.1fs %s (peak RSS %.0f MiB)\n", time.Since(began).Seconds(), what, hwm)
	}
	var problems []string
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		problems = append(problems, msg)
		fmt.Fprintln(os.Stderr, "check failed:", msg)
	}

	// Set up several times and keep the last system; the median set-up
	// time is reported.
	var setupS []float64
	var sys *system
	var setupTotal time.Duration
	for i := 0; again(i, setupTotal); i++ {
		if sys != nil {
			sys.close()
			if err := os.RemoveAll(sys.dir); err != nil {
				return nil, err
			}
			sys = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		s, err := setup(b, filepath.Join(dir, fmt.Sprintf("setup%d", i)), tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(start)
		setupTotal += took
		setupS = append(setupS, took.Seconds())
		sys = s
	}
	stage(fmt.Sprintf("set up %d times", len(setupS)))
	closed := false
	closeSys := func() {
		if !closed {
			closed = true
			sys.close()
		}
	}
	defer closeSys()

	clients := make([]*client.Client, 2)
	gens := make([]*gen, 2)
	for i := range clients {
		c, err := client.Dial(sys.primAddr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients[i] = c
		gens[i] = newGen(i, cfg.seed, b.writeShare(), b.next)
	}

	ctx := context.Background()
	half := time.Duration(cfg.seconds) * time.Second / 2
	openLoads := func(d time.Duration, t *tracer) []load {
		start := time.Now().Add(5 * time.Millisecond)
		ls := make([]load, 2)
		for i := range ls {
			ls[i] = load{c: clients[i], g: gens[i], window: window, rate: sp.rate / 2,
				count: int(math.Round(sp.rate / 2 * d.Seconds())), start: start, check: b.check, tr: t}
		}
		return ls
	}
	closedLoads := func(d time.Duration, t *tracer) []load {
		start := time.Now()
		ls := make([]load, 2)
		for i := range ls {
			ls[i] = load{c: clients[i], g: gens[i], window: window, dur: d, start: start, check: b.check, tr: t}
		}
		return ls
	}
	var warm []*phase
	var totals layerTotals
	totals.workers = partitions * len(sys.engines())
	var openLog float64 // bytes the primary's log appended in the open loop
	measure := func(loads []load) *phase {
		r0 := readLayers(sys)
		p := runPhase(ctx, loads)
		r1 := readLayers(sys)
		totals.add(r0, r1)
		if openLog == 0 {
			openLog = r1.walBy - r0.walBy
		}
		return p
	}

	warm = append(warm, runPhase(ctx, openLoads(warmup, nil)))
	open := measure(openLoads(half, tr))

	// The recovery check replays a copy taken here, after a fixed number
	// of transactions, so the replayed log is the same size on every run.
	// Peak memory is read here, after a fixed amount of work: the closed
	// loop's transaction count, and the log it keeps, vary with speed.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	stage("open loop done")
	b.freeze()
	copySrc := filepath.Join(dir, "recovery-src")
	if err := copyTree(filepath.Join(sys.dir, "primary"), copySrc); err != nil {
		return nil, err
	}

	warm = append(warm, runPhase(ctx, closedLoads(warmup, nil)))
	var closedPh *phase
	var tracedTPS, untracedTPS float64
	if tr == nil {
		closedPh = measure(closedLoads(half, nil))
		untracedTPS = tps(closedPh)
	} else {
		// The traced run measures the closed loop twice, untraced and then
		// traced; the throughput ratio is the tracing overhead.
		quarter := half / 2
		warm = append(warm, runPhase(ctx, closedLoads(quarter, nil)))
		untracedTPS = tps(warm[len(warm)-1])
		closedPh = measure(closedLoads(quarter, tr))
		tracedTPS = tps(closedPh)
	}

	stage("closed loop done")
	var rep replayResult
	var wireRes wireTiming
	var rs replStats
	if tr != nil {
		var err error
		if rep, err = replay(sys, b, cfg.seed, half/2, tr); err != nil {
			return nil, err
		}
		if rep.wrong > 0 {
			fail("%d replayed transactions returned wrong results", rep.wrong)
		}
		if wireRes, err = timeWire(b, cfg.seed, tr); err != nil {
			return nil, err
		}
		if sp.replicaPhase {
			var ph *phase
			if rs, ph, err = replicaPhase(ctx, sys, b, cfg.seed, half/2, tr); err != nil {
				return nil, err
			}
			warm = append(warm, ph)
			if rs.violations > 0 {
				fail("QuorumAcked passed DurableLSN at %d of %d samples", rs.violations, len(rs.lags))
			}
		}
	}

	stage("traced extras done")
	// Live checks: every acknowledged write is in the primary, and the
	// follower holds exactly the primary's rows.
	if err := sys.waitCaughtUp(time.Minute); err != nil {
		fail("%v", err)
	}
	if err := b.verify(sys.prim, false); err != nil {
		fail("live primary: %v", err)
	}
	if sys.fol != nil {
		if err := sameDigest(sys.prim, sys.fol, b.tables()); err != nil {
			fail("%v", err)
		}
	}
	for _, c := range clients {
		_ = c.Close()
	}
	closeSys()
	sys = nil // let the collector reclaim the served engines before recovery
	runtime.GC()
	debug.FreeOSMemory()
	stage("live checks done")

	// Recovery: open + schema + Recover on a copy of the data directory,
	// several times; the first recovered engine is checked.
	var recoverS []float64
	var info engine.RecoverInfo
	var recoverTotal time.Duration
	for i := 0; again(i, recoverTotal); i++ {
		e, inf, d, err := recoverCopy(b, copySrc, filepath.Join(dir, "recovered"), tr)
		if err != nil {
			return nil, err
		}
		recoverS = append(recoverS, d.Seconds())
		recoverTotal += d
		info = inf
		if i == 0 {
			if err := b.verify(e, true); err != nil {
				fail("recovered copy: %v", err)
			}
		}
		if err := e.Close(); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	stage("recovery done")

	// Failures are counted over the measured phases; any wrong result or
	// unknown outcome, warm-up included, fails the run's checks.
	all := &phase{}
	all.merge(open)
	all.merge(closedPh)
	for _, ph := range append(warm, open, closedPh) {
		if ph.wrong > 0 {
			fail("%d committed transactions returned wrong results", ph.wrong)
		}
		if ph.unknown > 0 {
			fail("%d transactions have an unknown outcome", ph.unknown)
		}
	}
	// End-to-end latency and throughput come from the quieter quarter of
	// each phase's statWindow windows (see quietQuartile); the whole-phase
	// figures are printed too.
	win, nwin := windows(half, sp.rate)
	q50 := func(xs []float64) float64 { return quantile(xs, 0.5) }
	q99 := func(xs []float64) float64 { return quantile(xs, 0.99) }
	for i := 0; i < nwin; i++ {
		from := open.start.Add(time.Duration(i) * win)
		if n := len(open.latencies(from, from.Add(win), false)); !supports(n, 99) {
			fail("open-loop window %d has %d samples, too few for a p99", i, n)
		}
	}
	lat := open.latencies(time.Time{}, open.start.Add(time.Hour), false)
	pct, beyond, _ := tailPercentile(len(lat))
	late := sortedCopy(open.late)
	fmt.Fprintf(os.Stderr, "%s seed %d: open loop %d txns at %.0f/s: p50 %.3f ms, p99 %.3f ms, tail p%g %.3f ms (%d samples beyond); sender late p50 %.3f ms, p99 %.3f ms; closed loop %.0f txn/s\n",
		sp.name, cfg.seed, len(lat), sp.rate, quantile(lat, 0.5), quantile(lat, 0.99), pct, quantile(lat, pct/100), beyond,
		quantile(late, 0.5), quantile(late, 0.99), untracedTPS)
	spreadOf := func(what string, xs []float64) {
		s := sortedCopy(xs)
		fmt.Fprintf(os.Stderr, "%v windows, %s: min %.4g, q1 %.4g, median %.4g, q3 %.4g, max %.4g\n",
			win, what, s[0], quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75), s[len(s)-1])
	}
	spreadOf("closed-loop txn/s", closedPh.windowRates(closedPh.start, win, nwin))
	spreadOf("open-loop p50 ms", open.windowStats(open.start, win, nwin, false, q50))
	spreadOf("open-loop p99 ms", open.windowStats(open.start, win, nwin, false, q99))

	res := &result{Correct: len(problems) == 0, Attempted: all.attempted, Failed: all.failed, Metrics: map[string]metric{}}
	if tr == nil {
		m := res.Metrics
		m["setup_s"] = metric{median(setupS), "s"}
		m["p50_ms"] = metric{quietQuartile(open.windowStats(open.start, win, nwin, false, q50), false), "ms"}
		m["write_p50_ms"] = metric{quietQuartile(open.windowStats(open.start, win, nwin, true, q50), false), "ms"}
		m["ok_ratio"] = metric{1 - ratio(float64(all.failed), float64(all.attempted)), "ratio"}
		m["log_bytes_per_txn"] = metric{ratio(openLog, float64(open.committed)), "bytes"}
		m["recovery_s"] = metric{median(recoverS), "s"}
		m["rss_mb"] = metric{rss, "MiB"}
		return res, nil
	}
	res.Metrics["served.open_p99_ms"] = metric{quietQuartile(open.windowStats(open.start, win, nwin, false, q99), false), "ms"}
	cwin, cn := windows(half/2, sp.rate) // the traced closed loop runs for half/2
	res.Metrics["served.closed_tps"] = metric{quietQuartile(closedPh.windowRates(closedPh.start, cwin, cn), true), "1/s"}
	layerMetrics(res.Metrics, tr, &totals, all, open, closedPh, rep, wireRes, info, rs, tracedTPS, untracedTPS)
	printSelfTimes(tr)
	tracePath := filepath.Join(cfg.work, fmt.Sprintf("trace-%s.tsv", sp.name))
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "spans written to %s\n", tracePath)
	return res, nil
}

// statWindow is the length of the windows latency and throughput are
// computed over.  It is well below the time between two garbage-collection
// cycles of a loaded run.
const statWindow = 250 * time.Millisecond

// quietQuartile returns the quartile of per-window figures on the quiet
// side: the third quartile of throughputs (higher) or the first of
// latencies.  On a shared machine interference from other tenants (CPU
// steal, a busy disk) only ever slows a window down, so the quieter windows
// show the system itself, while a quartile, unlike the best window, is not
// an outlier.  Disturbances of the system's own making that hit most
// windows still move it; rarer ones show in the whole-phase percentiles
// printed alongside.
func quietQuartile(perWindow []float64, higherIsBetter bool) float64 {
	s := sortedCopy(perWindow)
	if higherIsBetter {
		return quantile(s, 0.75)
	}
	return quantile(s, 0.25)
}

// again reports whether to make repeat i of set-up or recovery, after
// repeats that took spent in all.
func again(i int, spent time.Duration) bool {
	return i < minRepeats || (i < maxRepeats && spent < repeatBudget)
}

// windows splits a phase of length d into windows of statWindow, or longer
// where needed for a window of an open loop at rate to hold 1100 samples,
// safely above the 1000 its p99 needs.
func windows(d time.Duration, rate float64) (time.Duration, int) {
	w := statWindow
	if min := time.Duration(1100 / rate * float64(time.Second)); min > w {
		w = min
	}
	n := int(d / w)
	if n < 1 {
		n = 1
	}
	return d / time.Duration(n), n
}

// replStats is what the traced run's replicated phase measured.
type replStats struct {
	ackTimeouts, batches, records float64
	lags                          []float64 // follower apply lag samples, LSN bytes
	violations                    int       // samples with QuorumAcked > DurableLSN
}

// replicaPhase attaches an in-process follower to the served primary, makes
// commits wait for its ack (k=1, with a span around each wait), and runs an
// open loop at replicaRate for d: writes over one connection to the
// primary, reads over one to the follower.  A sampler checks the quorum-ack
// watermark and the apply lag every samplePeriod.
func replicaPhase(ctx context.Context, sys *system, b bench, seed int64, d time.Duration, tr *tracer) (replStats, *phase, error) {
	var rs replStats
	ackWait := func(lsn wal.LSN) error {
		start := time.Now()
		err := sys.hub.WaitReplicated(lsn)
		tr.record(0, tr.newID(), "repl.wait_replicated", start, time.Now())
		return err
	}
	if err := sys.attachFollower(b, ackWait); err != nil {
		return rs, nil, fmt.Errorf("attach follower: %w", err)
	}
	defer sys.prim.SetCommitAckWaiter(nil)
	share := b.writeShare()
	start := time.Now().Add(5 * time.Millisecond)
	loads := make([]load, 2)
	for i, addr := range []string{sys.primAddr, sys.folAddr} {
		c, err := client.Dial(addr)
		if err != nil {
			return rs, nil, err
		}
		defer c.Close()
		rate := replicaRate * share // writes to the primary
		g := newGen(i, seed, 1, b.next)
		if i == 1 {
			rate = replicaRate * (1 - share) // reads from the follower
			g = newGen(i, seed, 0, b.next)
		}
		g.ns = uint64(4 + i)
		loads[i] = load{c: c, g: g, window: window, rate: rate, count: int(math.Round(rate * d.Seconds())),
			start: start, check: b.check, tr: tr}
	}
	hub0, fol0 := sys.hub.Status(), sys.follower.Status()
	sm := startSampler(sys)
	ph := runPhase(ctx, loads)
	sm.close()
	hub1, fol1 := sys.hub.Status(), sys.follower.Status()
	rs.ackTimeouts = float64(hub1.AckTimeouts - hub0.AckTimeouts)
	rs.batches = float64(fol1.Batches - fol0.Batches)
	rs.records = float64(fol1.Records - fol0.Records)
	rs.lags = sm.lags
	rs.violations = int(sm.violations.Load())
	return rs, ph, nil
}

// tps is a closed-loop phase's committed transactions per second.
func tps(p *phase) float64 { return ratio(float64(p.committed), p.elapsed.Seconds()) }

// replayResult is the in-process ExecutePlan replay of the traced run.
type replayResult struct {
	execUS, lockUS, logUS []float64
	wrong                 int // committed with a wrong result
}

// replay executes the open loop's transactions (same seed, so the same
// plans) in-process through engine sessions, 2×window at a time — the
// served closed loop's concurrency — with a span around each call.  It
// compiles and executes the plan itself, exactly as
// Session.ExecutePlan does, to keep the transaction's blocked-time
// breakdown, which ExecutePlan discards.
func replay(sys *system, b bench, seed int64, d time.Duration, tr *tracer) (replayResult, error) {
	var out replayResult
	var mu sync.Mutex
	gens := []*gen{newGen(0, seed, b.writeShare(), b.next), newGen(1, seed, b.writeShare(), b.next)}
	for i, g := range gens {
		// Same transactions as the served streams, but TPC-B history keys
		// those streams already inserted would abort every replayed write.
		g.ns = uint64(len(gens) + i)
	}
	var genMu [2]sync.Mutex
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	for w := 0; w < 2*window; w++ {
		gi := w / window
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := sys.prim.NewSession()
			defer sess.Close()
			var exec, lock, logw []float64
			var spans []span
			bad := 0
			for time.Now().Before(deadline) {
				genMu[gi].Lock()
				o := gens[gi].op()
				genMu[gi].Unlock()
				results := make([]plan.Result, o.p.NumOps())
				start := time.Now()
				req, finish, err := sys.prim.CompilePlan(o.p, results, nil)
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				r, execErr := sess.Execute(req)
				finish()
				end := time.Now()
				id := tr.newID()
				spans = append(spans, span{id: id, req: id, name: "engine.execute_plan", start: start, end: end})
				resp := &wire.Response{Committed: execErr == nil, Results: make([]wire.StatementResult, len(results))}
				for i, pr := range results {
					resp.Results[i] = wire.StatementResult{Found: pr.Found, Value: pr.Value}
				}
				switch b.check(o, resp, execErr) {
				case committed:
				case wrong:
					bad++
					continue
				default:
					continue // an abort: txn.abort_ratio counts it
				}
				exec = append(exec, float64(end.Sub(start).Nanoseconds())/1e3)
				lock = append(lock, float64(r.Breakdown.Waits[txn.WaitLock].Nanoseconds())/1e3)
				logw = append(logw, float64(r.Breakdown.Waits[txn.WaitLog].Nanoseconds())/1e3)
			}
			tr.merge(spans)
			mu.Lock()
			out.execUS = append(out.execUS, exec...)
			out.lockUS = append(out.lockUS, lock...)
			out.logUS = append(out.logUS, logw...)
			out.wrong += bad
			mu.Unlock()
		}()
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return out, fmt.Errorf("replay: %w", *p)
	}
	return out, nil
}

// wireTiming is the cost of the plan frame encode and decode.
type wireTiming struct {
	encodeNS, decodeNS, bytes float64
}

// timeWire encodes and decodes wirePlans generated plans of the workload's
// mix, with one span around each batch of calls.
func timeWire(b bench, seed int64, tr *tracer) (wireTiming, error) {
	g := newGen(0, seed, b.writeShare(), b.next)
	plans := make([]*plan.Plan, wirePlans)
	for i := range plans {
		plans[i] = g.op().p
	}
	payloads := make([][]byte, len(plans))
	start := time.Now()
	for i, p := range plans {
		payloads[i] = wire.EncodePlanRequest(uint64(i+1), p)
	}
	mid := time.Now()
	for _, pl := range payloads {
		if _, err := wire.DecodeFrameV3(pl); err != nil {
			return wireTiming{}, fmt.Errorf("decode generated plan: %w", err)
		}
	}
	end := time.Now()
	req := tr.newID()
	tr.record(0, req, "wire.encode", start, mid)
	tr.record(0, req, "wire.decode", mid, end)
	var bytes int
	for _, pl := range payloads {
		bytes += len(pl)
	}
	n := float64(len(plans))
	return wireTiming{
		encodeNS: float64(mid.Sub(start).Nanoseconds()) / n,
		decodeNS: float64(end.Sub(mid).Nanoseconds()) / n,
		bytes:    float64(bytes) / n,
	}, nil
}

// layerMetrics fills the per-layer metrics of a traced run.
func layerMetrics(m map[string]metric, tr *tracer, t *layerTotals, all, open, closedPh *phase,
	rep replayResult, w wireTiming, info engine.RecoverInfo, rs replStats, tracedTPS, untracedTPS float64) {
	txns := float64(all.committed)
	per := func(x float64) float64 { return ratio(x, txns) }
	q := func(xs []float64, p float64) float64 { return quantile(sortedCopy(xs), p) }

	served := closedPh.latencies(time.Time{}, closedPh.start.Add(time.Hour), false)
	m["served.overhead_p50_us"] = metric{quantile(served, 0.5)*1e3 - median(rep.execUS), "us"}
	m["wire.encode_ns_per_txn"] = metric{w.encodeNS, "ns"}
	m["wire.decode_ns_per_txn"] = metric{w.decodeNS, "ns"}
	m["wire.req_bytes_per_txn"] = metric{w.bytes, "bytes"}
	m["server.plan_mean_us"] = metric{ratio(t.planSumUS, t.planSampled), "us"}
	m["server.plan_cache_hit_ratio"] = metric{ratio(t.planHits, t.planHits+t.planCompiles), "ratio"}
	m["engine.exec_p50_us"] = metric{q(rep.execUS, 0.5), "us"}
	m["engine.exec_p99_us"] = metric{q(rep.execUS, 0.99), "us"}
	m["dora.queue_wait_us_per_txn"] = metric{per(t.queueWaitNS / 1e3), "us"}
	m["dora.busy_us_per_txn"] = metric{per(t.busyNS / 1e3), "us"}
	m["dora.tasks_per_txn"] = metric{per(t.executed), "count"}
	m["dora.busy_share"] = metric{ratio(t.busyNS/1e9, t.wallS*float64(t.workers)), "ratio"}
	m["cs.per_txn"] = metric{per(t.csEntered), "count"}
	m["cs.contended_per_txn"] = metric{per(t.csContended), "count"}
	m["latch.index_per_txn"] = metric{per(t.latches[latch.KindIndex]), "count"}
	m["latch.heap_per_txn"] = metric{per(t.latches[latch.KindHeap]), "count"}
	m["latch.catalog_per_txn"] = metric{per(t.latches[latch.KindCatalog]), "count"}
	m["bufferpool.fixes_per_txn"] = metric{per(t.fixes), "count"}
	m["txn.abort_ratio"] = metric{ratio(t.txnAborted, t.txnCommitted+t.txnAborted), "ratio"}
	m["txn.lock_wait_us_per_txn"] = metric{mean(rep.lockUS), "us"}
	m["txn.log_wait_us_per_txn"] = metric{mean(rep.logUS), "us"}
	m["txn.fsync_ack_p50_us"] = metric{t.fsyncQuantile(0.5), "us"}
	m["txn.fsync_ack_p99_us"] = metric{t.fsyncQuantile(0.99), "us"}
	m["wal.appends_per_commit"] = metric{ratio(t.walAppends, t.txnCommitted), "count"}
	m["wal.commits_per_flush"] = metric{ratio(float64(all.writes), t.walFlushes), "count"}
	m["wal.flushes_per_s"] = metric{ratio(t.walFlushes, t.wallS), "1/s"}
	cp := tr.durations("engine.checkpoint")
	rec := tr.durations("engine.recover")
	m["recovery.checkpoint_s"] = metric{median(cp) / 1e6, "s"}
	m["recovery.replayed_per_s"] = metric{ratio(float64(info.Replay.SnapshotEntries+info.Replay.Applied), median(rec)/1e6), "1/s"}
	m["recovery.snapshot_entries"] = metric{float64(info.Replay.SnapshotEntries), "count"}
	acks := tr.durations("repl.wait_replicated")
	m["repl.ack_wait_p50_us"] = metric{q(acks, 0.5), "us"}
	m["repl.ack_wait_p99_us"] = metric{q(acks, 0.99), "us"}
	m["repl.ack_timeouts"] = metric{rs.ackTimeouts, "count"}
	m["repl.records_per_batch"] = metric{ratio(rs.records, rs.batches), "count"}
	m["repl.apply_lag_lsn_p99"] = metric{q(rs.lags, 0.99), "lsn"}
	m["gen.late_p99_ms"] = metric{q(open.late, 0.99), "ms"}
	m["trace.overhead_ratio"] = metric{ratio(tracedTPS, untracedTPS), "ratio"}
	self := tr.selfTimes()
	for _, s := range []struct{ span, name string }{
		{"request", "trace.queue_self_us"},
		{"client.submit", "trace.submit_self_us"},
		{"client.wait", "trace.wait_self_us"},
	} {
		st := self[s.span]
		m[s.name] = metric{ratio(float64(st.total.Nanoseconds())/1e3, float64(st.count)), "us"}
	}
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// printSelfTimes reports every span name's count and mean self time.
func printSelfTimes(tr *tracer) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := self[n]
		fmt.Fprintf(os.Stderr, "self time %-22s %8d spans, mean %10.1f us\n", n, st.count,
			ratio(float64(st.total.Nanoseconds())/1e3, float64(st.count)))
	}
}
