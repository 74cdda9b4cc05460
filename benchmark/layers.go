package main

import (
	"math"
	"time"

	"plp/internal/engine"
	"plp/internal/latch"
	"plp/internal/server"
)

// reading is one snapshot of every layer's public counters.  Worker, cs,
// latch and buffer-pool counters are summed over the system's engines;
// txn, wal and commit-ack counters are the primary's, where commits happen.
type reading struct {
	at time.Time

	executed, queueWaitNS, busyNS float64
	csEntered, csContended        float64
	latches                       [latch.NumKinds]float64
	fixes                         float64

	txnCommitted, txnAborted      float64
	walAppends, walFlushes, walBy float64
	fsync                         []uint64

	planHits, planCompiles float64
	planSampled, planSumUS float64
}

func readLayers(s *system) reading {
	r := reading{at: time.Now()}
	for _, e := range s.engines() {
		ws := e.WorkerStats()
		r.executed += float64(ws.Executed)
		r.queueWaitNS += float64(ws.QueueWait)
		r.busyNS += float64(ws.Busy)
		cs := e.CSStats().Snapshot()
		r.csEntered += float64(cs.Total())
		r.csContended += float64(cs.TotalContended())
		ls := e.LatchStats().Snapshot()
		for k := range r.latches {
			r.latches[k] += float64(ls.Acquired[k])
		}
		r.fixes += float64(e.BufferPool().Stats().Fixes)
	}
	ts := s.prim.TxnStats()
	r.txnCommitted, r.txnAborted = float64(ts.Committed), float64(ts.Aborted)
	ws := s.prim.Log().Stats()
	r.walAppends, r.walFlushes, r.walBy = float64(ws.Appends), float64(ws.Flushes), float64(ws.BytesLogged)
	local, _ := s.prim.AckWaitHistograms()
	r.fsync = local.Buckets
	hits, _, compiles := engine.PlanCacheCounters()
	r.planHits, r.planCompiles = float64(hits), float64(compiles)
	ps := server.LatencySnapshot()["plan"]
	r.planSampled, r.planSumUS = float64(ps.Sampled), float64(ps.Sampled*ps.MeanUS)
	return r
}

// layerTotals accumulates counter deltas over the measured phases.
type layerTotals struct {
	wallS   float64
	workers int

	executed, queueWaitNS, busyNS float64
	csEntered, csContended        float64
	latches                       [latch.NumKinds]float64
	fixes                         float64
	txnCommitted, txnAborted      float64
	walAppends, walFlushes, walBy float64
	fsync                         []float64
	planHits, planCompiles        float64
	planSampled, planSumUS        float64
}

// add accumulates the deltas between two readings.
func (t *layerTotals) add(a, b reading) {
	t.wallS += b.at.Sub(a.at).Seconds()
	t.executed += b.executed - a.executed
	t.queueWaitNS += b.queueWaitNS - a.queueWaitNS
	t.busyNS += b.busyNS - a.busyNS
	t.csEntered += b.csEntered - a.csEntered
	t.csContended += b.csContended - a.csContended
	for k := range t.latches {
		t.latches[k] += b.latches[k] - a.latches[k]
	}
	t.fixes += b.fixes - a.fixes
	t.txnCommitted += b.txnCommitted - a.txnCommitted
	t.txnAborted += b.txnAborted - a.txnAborted
	t.walAppends += b.walAppends - a.walAppends
	t.walFlushes += b.walFlushes - a.walFlushes
	t.walBy += b.walBy - a.walBy
	if t.fsync == nil {
		t.fsync = make([]float64, len(b.fsync))
	}
	for i := range b.fsync {
		if i < len(a.fsync) && i < len(t.fsync) {
			t.fsync[i] += float64(b.fsync[i] - a.fsync[i])
		}
	}
	t.planHits += b.planHits - a.planHits
	t.planCompiles += b.planCompiles - a.planCompiles
	t.planSampled += b.planSampled - a.planSampled
	t.planSumUS += b.planSumUS - a.planSumUS
}

// fsyncQuantile estimates a quantile, in microseconds, of the local
// group-commit ack waits; bucket i holds waits in [2^i, 2^(i+1)) µs.
func (t *layerTotals) fsyncQuantile(q float64) float64 {
	counts := make([]uint64, len(t.fsync))
	for i, c := range t.fsync {
		counts[i] = uint64(c)
	}
	return histQuantile(counts, q,
		func(i int) float64 { return math.Ldexp(1, i) },
		func(i int) float64 { return math.Ldexp(1, i+1) })
}
