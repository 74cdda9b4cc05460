package main

import (
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		pct    float64
		beyond int
		ok     bool
	}{
		{n: 19, ok: false},
		{n: 20, pct: 50, beyond: 10, ok: true},
		{n: 99, pct: 50, beyond: 49, ok: true},
		{n: 100, pct: 90, beyond: 10, ok: true},
		{n: 999, pct: 90, beyond: 99, ok: true},
		{n: 1000, pct: 99, beyond: 10, ok: true},
		{n: 16000, pct: 99.9, beyond: 16, ok: true},
		{n: 100_000, pct: 99.99, beyond: 10, ok: true},
	}
	for _, c := range cases {
		pct, beyond, ok := tailPercentile(c.n)
		if ok != c.ok || (ok && (pct != c.pct || beyond != c.beyond)) {
			t.Errorf("tailPercentile(%d) = p%g with %d beyond (ok %v), want p%g with %d beyond (ok %v)",
				c.n, pct, beyond, ok, c.pct, c.beyond, c.ok)
		}
		if ok && !supports(c.n, pct) {
			t.Errorf("supports(%d, %g) = false for the chosen percentile", c.n, pct)
		}
	}
	if supports(999, 99) || !supports(1000, 99) {
		t.Error("p99 needs at least 1000 samples")
	}
}

func TestQuantiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median = %v, want 50.5", got)
	}
	s := sortedCopy(xs)
	if got := quantile(s, 0.99); got < 99 || got > 100 {
		t.Errorf("p99 = %v, want within [99, 100]", got)
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample should be 0")
	}
	// Ten values in [0, 10) and ten in [10, 20): the median sits at the
	// top of the first bucket, the 0.75 quantile halfway up the second.
	buckets := []uint64{10, 10}
	lo := func(i int) float64 { return float64(10 * i) }
	hi := func(i int) float64 { return float64(10 * (i + 1)) }
	if got := histQuantile(buckets, 0.5, lo, hi); got != 10 {
		t.Errorf("hist median = %v, want 10", got)
	}
	if got := histQuantile(buckets, 0.75, lo, hi); got != 15 {
		t.Errorf("hist q0.75 = %v, want 15", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{}
	root := tr.record(0, 1, "request", at(0), at(100))
	tr.record(root, 1, "a", at(10), at(30))
	tr.record(root, 1, "a", at(20), at(40))  // overlaps the first child
	tr.record(root, 1, "b", at(90), at(120)) // clipped to the parent
	self := tr.selfTimes()
	if got := self["request"].total; got != 60*time.Millisecond {
		t.Errorf("request self time = %v, want 60ms", got)
	}
	if got := self["a"]; got.count != 2 || got.total != 40*time.Millisecond {
		t.Errorf("a self time = %+v, want 2 spans, 40ms", got)
	}
}
