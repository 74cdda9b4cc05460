package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/workload/tatp"
	"plp/internal/workload/tpcb"
	"plp/wire"
)

// partitions is the partition count of every workload's engine.
const partitions = 4

// spec is one benchmark workload.
type spec struct {
	name string
	// rate is the open-loop arrival rate in transactions per second, about
	// half of the closed-loop capacity measured on a 2-core box.
	rate float64
	// replicaPhase adds a replicated phase to the traced run (see
	// replicaPhase in main.go).
	replicaPhase bool
	newBench     func() bench
}

var specs = []spec{
	{name: "tatp-read-mostly", rate: 6000, replicaPhase: true, newBench: newTATP},
	{name: "tpcb-durable", rate: 3000, newBench: newTPCB},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// bench is a workload's data and checks.  The acknowledged-write record is
// shared by every generator, so its methods are safe for concurrent use.
type bench interface {
	schema(e *engine.Engine) error
	load(e *engine.Engine) error
	tables() []string
	writeShare() float64
	next(g *gen) op
	check(o op, resp *wire.Response, err error) verdict
	// freeze snapshots the acknowledged writes at the point the data
	// directory is copied for the recovery check.
	freeze()
	// verify runs the workload's consistency check on e and compares it
	// with the frozen (recovered copy) or the current (live engine)
	// acknowledged writes.
	verify(e *engine.Engine, frozen bool) error
}

// outcome maps transport errors and aborts to a verdict; ok reports a
// committed response whose results the caller should check.
func outcome(resp *wire.Response, err error) (verdict, bool) {
	switch {
	case resp == nil:
		return unknown, false
	case !resp.Committed:
		return aborted, false
	case err != nil:
		return unknown, false
	}
	return committed, true
}

// TATP: 100,000 subscribers; 80% GetSubscriberData, 20% UpdateLocation.
const tatpSubscribers = 100_000

type tatpBench struct {
	w *tatp.Workload

	mu     sync.Mutex
	acked  map[uint64][]int64 // sid -> acknowledged VLR locations
	frozen map[uint64][]int64
}

func newTATP() bench {
	return &tatpBench{
		w:     tatp.New(tatp.Config{Subscribers: tatpSubscribers, Partitions: partitions}),
		acked: make(map[uint64][]int64),
	}
}

func (b *tatpBench) schema(e *engine.Engine) error { return b.w.SetupSchema(e) }
func (b *tatpBench) load(e *engine.Engine) error   { return b.w.Load(e) }
func (b *tatpBench) writeShare() float64           { return 0.2 }

func (b *tatpBench) tables() []string {
	return []string{tatp.TableSubscriber, tatp.TableAccessInfo, tatp.TableSpecialFacility, tatp.TableCallForwarding}
}

func (b *tatpBench) next(g *gen) op {
	sid := 1 + uint64(g.rng.Int63n(tatpSubscribers))
	if g.rng.Float64() < g.writeShare {
		loc := g.rng.Uint32()
		return op{p: b.w.UpdateLocationPlan(sid, loc), write: true, sid: sid, val: int64(loc)}
	}
	return op{p: b.w.GetSubscriberDataPlan(sid), sid: sid}
}

func (b *tatpBench) check(o op, resp *wire.Response, err error) verdict {
	v, ok := outcome(resp, err)
	if !ok {
		return v
	}
	if len(resp.Results) == 0 || !resp.Results[0].Found {
		return wrong
	}
	if !o.write {
		rec := resp.Results[0].Value
		if len(rec) < 8 || binary.BigEndian.Uint64(rec) != o.sid {
			return wrong
		}
		return committed
	}
	b.mu.Lock()
	b.acked[o.sid] = append(b.acked[o.sid], o.val)
	b.mu.Unlock()
	return committed
}

func (b *tatpBench) freeze() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.frozen = make(map[uint64][]int64, len(b.acked))
	for sid, vs := range b.acked {
		b.frozen[sid] = append([]int64(nil), vs...)
	}
}

// verify checks that every subscriber written with an acknowledged
// UpdateLocation holds one of its acknowledged values.
func (b *tatpBench) verify(e *engine.Engine, frozen bool) error {
	if err := b.w.Verify(e); err != nil {
		return err
	}
	b.mu.Lock()
	want := b.acked
	if frozen {
		want = b.frozen
	}
	sids := make([]uint64, 0, len(want))
	for sid := range want {
		sids = append(sids, sid)
	}
	b.mu.Unlock()
	sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })
	l := e.NewLoader()
	for _, sid := range sids {
		rec, err := l.Read(tatp.TableSubscriber, tatp.SubscriberKey(sid))
		if err != nil {
			return fmt.Errorf("subscriber %d unreadable: %w", sid, err)
		}
		sub, err := tatp.UnmarshalSubscriber(rec)
		if err != nil {
			return err
		}
		b.mu.Lock()
		vals := want[sid]
		b.mu.Unlock()
		found := false
		for _, v := range vals {
			found = found || uint32(v) == sub.VLRLocation
		}
		if !found {
			return fmt.Errorf("subscriber %d has VLR location %d, none of its %d acknowledged values", sid, sub.VLRLocation, len(vals))
		}
	}
	return nil
}

// TPC-B: 4 branches × 10,000 accounts, 40 tellers.
const (
	tpcbBranches = 4
	tpcbAccounts = 10_000
)

type tpcbBench struct {
	w      *tpcb.Workload
	acked  atomic.Int64 // sum of acknowledged deltas
	frozen int64
}

func newTPCB() bench {
	return &tpcbBench{w: tpcb.New(tpcb.Config{Branches: tpcbBranches, AccountsPerBranch: tpcbAccounts, Partitions: partitions})}
}

// schema creates the TPC-B tables with the partitioning tpcb.Setup uses;
// the package only offers schema and load together, and recovery needs the
// schema alone.
func (b *tpcbBench) schema(e *engine.Engine) error {
	defs := []catalog.TableDef{
		{Name: tpcb.TableAccount, Boundaries: tatp.UniformBoundaries(tpcbBranches*tpcbAccounts, partitions)},
		{Name: tpcb.TableTeller, Boundaries: tatp.UniformBoundaries(tpcbBranches*tpcb.TellersPerBranch, partitions)},
		{Name: tpcb.TableBranch, Boundaries: tatp.UniformBoundaries(tpcbBranches, partitions)},
		{Name: tpcb.TableHistory, Boundaries: tatp.UniformBoundaries(1<<40, partitions)},
	}
	for _, def := range defs {
		if _, err := e.CreateTable(def); err != nil {
			return err
		}
	}
	return nil
}

func (b *tpcbBench) load(e *engine.Engine) error { return b.w.Load(e) }
func (b *tpcbBench) writeShare() float64         { return 1 }

func (b *tpcbBench) tables() []string {
	return []string{tpcb.TableAccount, tpcb.TableTeller, tpcb.TableBranch, tpcb.TableHistory}
}

// historyMask keeps history ids inside the table's partitioned key range.
const historyMask = 1<<40 - 1

func (b *tpcbBench) next(g *gen) op {
	account := 1 + uint64(g.rng.Int63n(tpcbBranches*tpcbAccounts))
	branch := 1 + (account-1)/tpcbAccounts
	teller := (branch-1)*tpcb.TellersPerBranch + 1 + uint64(g.rng.Intn(tpcb.TellersPerBranch))
	delta := int64(g.rng.Intn(1999999) - 999999)
	// Unique per (namespace, sequence) and spread over the key range: an
	// odd multiplier is a bijection modulo 2^40.
	hist := ((g.ns<<38 | g.seq) * 0x9E3779B97F4A7C15) & historyMask
	return op{p: b.w.AccountUpdatePlan(account, teller, branch, hist, delta), write: true, val: delta}
}

func (b *tpcbBench) check(o op, resp *wire.Response, err error) verdict {
	v, ok := outcome(resp, err)
	if !ok {
		return v
	}
	for _, r := range resp.Results {
		if !r.Found {
			return wrong
		}
	}
	b.acked.Add(o.val)
	return committed
}

func (b *tpcbBench) freeze() { b.frozen = b.acked.Load() }

// verify checks the TPC-B balance invariants and that the branch balances
// add up to exactly the acknowledged deltas.
func (b *tpcbBench) verify(e *engine.Engine, frozen bool) error {
	if err := b.w.Verify(e); err != nil {
		return err
	}
	want := b.acked.Load()
	if frozen {
		want = b.frozen
	}
	var sum int64
	err := e.NewLoader().ReadRange(tpcb.TableBranch, nil, nil, func(_, rec []byte) bool {
		sum += int64(binary.BigEndian.Uint64(rec[8:16]))
		return true
	})
	if err != nil {
		return err
	}
	if sum != want {
		return fmt.Errorf("branch balances sum to %d, acknowledged deltas to %d", sum, want)
	}
	return nil
}

// digest hashes every row of the tables in key order.
func digest(e *engine.Engine, tables []string) ([32]byte, int, error) {
	h := sha256.New()
	rows := 0
	l := e.NewLoader()
	var lenBuf [8]byte
	for _, t := range tables {
		err := l.ReadRange(t, nil, nil, func(key, rec []byte) bool {
			for _, part := range [][]byte{key, rec} {
				binary.BigEndian.PutUint64(lenBuf[:], uint64(len(part)))
				h.Write(lenBuf[:])
				h.Write(part)
			}
			rows++
			return true
		})
		if err != nil {
			return [32]byte{}, 0, fmt.Errorf("digest %s: %w", t, err)
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, rows, nil
}

// sameDigest compares two engines' contents.
func sameDigest(a, b *engine.Engine, tables []string) error {
	da, na, err := digest(a, tables)
	if err != nil {
		return err
	}
	db, nb, err := digest(b, tables)
	if err != nil {
		return err
	}
	if !bytes.Equal(da[:], db[:]) {
		return fmt.Errorf("follower digest %x (%d rows) differs from primary %x (%d rows)", db[:8], nb, da[:8], na)
	}
	return nil
}
