// Durability: checkpointing and restart recovery at the engine level.
//
// The recovery machinery itself lives in internal/recovery (log analysis,
// checkpoint snapshots, logical replay); this file is the engine-side
// orchestration that makes a kill -9 survivable end to end:
//
//	e, _ := engine.Open(engine.Options{Design: engine.PLPLeaf, DataDir: dir, ...})
//	e.CreateTable(...)            // same schema as before the crash
//	info, _ := e.Recover()        // boundaries, contents, controller state
//	...serve...
//	e.Checkpoint()                // bound the log tail; Truncate reclaims it
//
// Recover restores, in order: the partition boundaries the last checkpoint
// recorded (online repartitioning moves them away from the schema's initial
// values, and the MRBTree sub-trees must be re-sliced the same way before
// data is loaded), then the table contents (checkpoint snapshot + committed
// log tail), and finally it stashes the repartitioning controller's opaque
// state blob for the controller to reclaim when it re-attaches.
//
// The snapshot is loaded in parallel, the way PLP runs everything else:
// each partition's entries are loaded by the partition worker that owns
// them (see Loader.LoadSnapshot), so the latch-free sub-trees and heap
// pages are only ever touched by their owner.  The committed log tail
// then replays in LSN order on the calling goroutine.
package engine

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"plp/internal/dora"
	"plp/internal/recovery"
)

// RecoverInfo reports what a Recover call rebuilt.
type RecoverInfo struct {
	// Replay is the logical replay's work: snapshot entries loaded,
	// operations re-applied, loser operations skipped.
	Replay recovery.ReplayStats
	// Winners and Losers count the committed and the aborted/in-flight
	// transactions found in the log.
	Winners, Losers int
	// BoundariesRestored counts the partition-boundary moves applied to
	// match the checkpointed routing state.
	BoundariesRestored int
	// ControllerState reports whether a repartitioning-controller state
	// blob was recovered (reclaimed by AttachRepartitioner).
	ControllerState bool
	// InDoubt counts cross-shard branches that were prepared but not
	// decided at the crash; they await their coordinator's verdict (see
	// Engine.DecidePrepared).
	InDoubt int
}

// Checkpoint captures a transactionally consistent snapshot of every table,
// the routing boundaries and the registered controller state into the
// engine's log (see recovery.Checkpoint).  The partition workers are
// quiesced for the duration; the call fails if transactions are in flight.
func (e *Engine) Checkpoint() (recovery.CheckpointStats, error) {
	return recovery.Checkpoint(e, 0)
}

// Recover rebuilds the engine's logical state from its log.  The engine
// must hold the same schema as the crashed instance (tables created, no
// data loaded, no traffic yet); boundaries recorded by the most recent
// checkpoint are re-applied before the contents are replayed so MRBTree
// sub-tree ownership and heap placement match the pre-crash state.  The
// snapshot load runs on the partition workers, so Recover must not be
// called from inside Quiesce (the parked workers would never run it).
func (e *Engine) Recover() (RecoverInfo, error) {
	return e.recoverInto(e.NewLoader())
}

// recoverInto is Recover replaying into t; tests pass a target that hides
// Loader.LoadSnapshot to get the single-goroutine load.
func (e *Engine) recoverInto(t recovery.Target) (RecoverInfo, error) {
	// Replay rebuilds this node's physical organization (page splits,
	// boundary moves) from logical history; those reorganizations must not
	// append new structural records — on a follower they would break the
	// byte-identical-prefix invariant with the primary's log.
	e.replaying.Store(true)
	defer e.replaying.Store(false)
	var info RecoverInfo
	a, err := recovery.Analyze(e.log)
	if err != nil {
		return info, err
	}
	if a.Meta != nil {
		for _, tb := range a.Meta.Tables {
			n, berr := e.restoreBoundaries(tb.Table, tb.Boundaries)
			info.BoundariesRestored += n
			if berr != nil {
				return info, fmt.Errorf("engine: restoring %s boundaries: %w", tb.Table, berr)
			}
		}
		if len(a.Meta.Controller) > 0 {
			e.recoveredMu.Lock()
			e.recoveredState = append([]byte(nil), a.Meta.Controller...)
			e.recoveredMu.Unlock()
			info.ControllerState = true
		}
	}
	info.Replay, err = recovery.Replay(a, t)
	if err != nil {
		return info, err
	}
	// Cross-shard branches that were prepared but not decided locally stay
	// withheld from replay; stash them (plus any recovered coordinator
	// decisions) for the server layer to resolve against the coordinator.
	e.stashInDoubt(a)
	info.Winners = len(a.Winners())
	info.Losers = len(a.Losers())
	info.InDoubt = len(a.InDoubt())
	return info, nil
}

// LoadSnapshot implements recovery.SnapshotLoader.  It splits the snapshot
// into lanes (see snapshotLanes) and loads each lane with
// recovery.LoadSpans: lane p on partition worker p, the shared lane on one
// extra goroutine, and every lane on the calling goroutine when the engine
// has no workers (Conventional).  It waits for every lane and returns the
// first lane error.
func (l *Loader) LoadSnapshot(s *recovery.Snapshot) (int, error) {
	e := l.ctx.eng
	lanes := e.snapshotLanes(s)
	counts := make([]int, len(lanes))
	errs := make([]error, len(lanes))
	load := func(i int) {
		counts[i], errs[i] = recovery.LoadSpans(e.NewLoader(), s, lanes[i])
	}
	if e.pool == nil {
		for i := range lanes {
			load(i)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(len(lanes))
		shared := len(lanes) - 1
		go func() {
			defer wg.Done()
			load(shared)
		}()
		for i := 0; i < shared; i++ {
			err := e.pool.Worker(i).Submit(dora.Task{Do: func(*dora.Worker) {
				defer wg.Done()
				load(i)
			}})
			if err != nil {
				errs[i] = err
				wg.Done()
			}
		}
		wg.Wait()
	}
	n := 0
	for _, c := range counts {
		n += c
	}
	for _, err := range errs {
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// snapshotLanes assigns every snapshot entry to a load lane.  Lane p (one
// per partition worker; a single lane without workers) holds the primary
// entries the routing table gives to partition p, plus the entries of
// sub-tree p of every multi-rooted (partition-aligned) secondary index.
// The last, shared lane holds what no worker owns: the latched,
// single-rooted secondary indexes, and chunks of tables the schema lacks
// (whose load then fails there).  Each chunk is in key order, so it is cut
// at the boundaries by binary search instead of being copied.
func (e *Engine) snapshotLanes(s *recovery.Snapshot) [][]recovery.Span {
	workers := 1
	if e.pool != nil {
		workers = e.pool.Size()
	}
	lanes := make([][]recovery.Span, workers+1)
	shared := workers
	for ci := range s.Chunks {
		c := &s.Chunks[ci]
		bounds, owned := e.laneBoundaries(c.Table, c.Index)
		if !owned {
			lanes[shared] = append(lanes[shared], recovery.Span{Chunk: ci, Hi: len(c.Keys)})
			continue
		}
		for p, lo := 0, 0; lo < len(c.Keys); p++ {
			hi := len(c.Keys)
			if p < len(bounds) {
				b, rest := bounds[p], c.Keys[lo:]
				hi = lo + sort.Search(len(rest), func(i int) bool { return bytes.Compare(rest[i], b) >= 0 })
			}
			if hi > lo {
				lanes[p%workers] = append(lanes[p%workers], recovery.Span{Chunk: ci, Lo: lo, Hi: hi})
			}
			lo = hi
		}
	}
	return lanes
}

// laneBoundaries returns the boundaries that split a snapshot chunk of
// table (index "" for the primary) into partition lanes, and false when the
// chunk belongs in the shared lane.
func (e *Engine) laneBoundaries(table, index string) ([][]byte, bool) {
	if index == "" {
		bounds, err := e.Boundaries(table)
		return bounds, err == nil
	}
	tbl, err := e.Table(table)
	if err != nil {
		return nil, false
	}
	idx, err := tbl.Secondary(index)
	if err != nil || idx.NumPartitions() == 1 {
		return nil, false
	}
	return idx.Boundaries(), true
}

// restoreBoundaries moves the table's routing boundaries to want.  A
// single left-to-right sweep can be blocked when a target boundary lies
// beyond the *current* position of its right neighbour (MoveBoundary only
// moves between adjacent partitions), so the sweep repeats until it makes
// no further progress.  Tables whose partition count changed across the
// restart are left on their schema-initial boundaries.
func (e *Engine) restoreBoundaries(table string, want [][]byte) (int, error) {
	cur, err := e.Boundaries(table)
	if err != nil {
		// The table exists in the checkpoint but not in the new schema;
		// replay will fail loudly on its data, so just skip here.
		return 0, nil
	}
	if len(cur) != len(want) {
		return 0, nil
	}
	moved := 0
	for pass := 0; pass <= len(want); pass++ {
		progress := false
		for i := range want {
			cur, err = e.Boundaries(table)
			if err != nil {
				return moved, err
			}
			if bytes.Equal(cur[i], want[i]) {
				continue
			}
			if _, rerr := e.Rebalance(table, i+1, want[i]); rerr == nil {
				moved++
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	cur, err = e.Boundaries(table)
	if err != nil {
		return moved, err
	}
	for i := range want {
		if !bytes.Equal(cur[i], want[i]) {
			return moved, fmt.Errorf("boundary %d stuck at %x, want %x", i, cur[i], want[i])
		}
	}
	return moved, nil
}

// SetCheckpointStateProvider installs (or, with nil, removes) the function
// checkpoints call to capture the opaque controller-state blob.  The online
// repartitioning controller registers itself here when it attaches.
func (e *Engine) SetCheckpointStateProvider(fn func() []byte) {
	if fn == nil {
		e.stateProvider.Store(nil)
		return
	}
	e.stateProvider.Store(&fn)
}

// CheckpointState implements recovery.StateSource: it returns the
// registered provider's blob, or nil when none is registered.
func (e *Engine) CheckpointState() []byte {
	if p := e.stateProvider.Load(); p != nil {
		return (*p)()
	}
	return nil
}

// RecoveredControllerState returns the controller-state blob the most
// recent Recover call found in the checkpoint meta record (nil if none).
// AttachRepartitioner consumes it to warm-start the controller's
// histograms.
func (e *Engine) RecoveredControllerState() []byte {
	e.recoveredMu.Lock()
	defer e.recoveredMu.Unlock()
	return e.recoveredState
}
