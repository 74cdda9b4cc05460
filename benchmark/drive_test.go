package main

import (
	"context"
	"testing"
	"time"

	"plp/client"
	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/internal/server"
	"plp/plan"
	"plp/wire"
)

// TestOpenLoopChargesStallToQueuedRequests stalls the engine in the middle
// of an open-loop phase.  Requests due during the stall are charged the
// wait from their due time: far more than one window of them see a long
// latency, and the sender reports running late.  Timing from the send time
// would charge at most the window of requests already in flight.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	e := engine.New(engine.Options{Design: engine.PLPLeaf, Partitions: 2})
	defer e.Close()
	if _, err := e.CreateTable(catalog.TableDef{Name: "kv", Boundaries: [][]byte{keyenc.Uint64Key(500)}}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve()
	}()
	defer func() {
		_ = srv.Close()
		<-served
	}()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const (
		rate    = 2000.0
		count   = 800
		win     = 4
		stall   = 100 * time.Millisecond
		stallAt = 150 * time.Millisecond
	)
	g := newGen(0, 1, 0, func(g *gen) op {
		return op{p: plan.New().Get("kv", keyenc.Uint64Key(uint64(g.rng.Intn(1000)))).MustBuild()}
	})
	check := func(_ op, resp *wire.Response, err error) verdict {
		if v, ok := outcome(resp, err); !ok {
			return v
		}
		return committed
	}
	start := time.Now().Add(10 * time.Millisecond)
	stalled := make(chan error, 1)
	go func() {
		time.Sleep(time.Until(start.Add(stallAt)))
		stalled <- e.Quiesce(func() { time.Sleep(stall) })
	}()
	p := drive(context.Background(), load{c: c, g: g, window: win, rate: rate, count: count, start: start, check: check})
	if err := <-stalled; err != nil {
		t.Fatal(err)
	}
	if p.committed != count || p.failed != 0 {
		t.Fatalf("committed %d failed %d, want %d and 0", p.committed, p.failed, count)
	}
	lat := p.latencies(time.Time{}, start.Add(time.Hour), false)
	long := 0
	for _, ms := range lat {
		if ms >= float64(stall.Milliseconds())/4 {
			long++
		}
	}
	// About rate × 3/4 × stall = 150 requests fall due in the first three
	// quarters of the stall; each waits at least a quarter of it.
	if long < 100 {
		t.Errorf("%d requests charged ≥ %v, want ≥ 100 (window %d)", long, stall/4, win)
	}
	if maxLate := quantile(sortedCopy(p.late), 1); maxLate < float64(stall.Milliseconds())/2 {
		t.Errorf("sender ran at most %.1f ms late, want ≥ %d ms", maxLate, stall.Milliseconds()/2)
	}
	if maxLat := quantile(lat, 1); maxLat < float64(stall.Milliseconds())*0.8 {
		t.Errorf("longest latency %.1f ms, want ≥ 80%% of the %v stall", maxLat, stall)
	}
}
