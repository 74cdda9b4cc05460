package engine

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"testing"
	"time"

	"plp/internal/catalog"
	"plp/internal/heap"
	"plp/internal/keyenc"
	"plp/internal/logrec"
	"plp/internal/page"
	"plp/internal/recovery"
	"plp/internal/wal"
)

// inlineTarget hides Loader.LoadSnapshot, so recovery.Replay runs the same
// recovery.LoadSpans loop over the whole snapshot on the calling goroutine.
type inlineTarget struct{ recovery.Target }

// laneEngine opens a disk-backed engine with a heap table carrying a
// partition-aligned and a non-aligned secondary index, and a clustered
// table, both on 4 partitions.
func laneEngine(t *testing.T, dir string, design Design) *Engine {
	t.Helper()
	e, err := Open(Options{Design: design, Partitions: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	bounds := [][]byte{keyenc.Uint64Key(251), keyenc.Uint64Key(501), keyenc.Uint64Key(751)}
	if _, err := e.CreateTable(catalog.TableDef{Name: "kv", Boundaries: bounds, Secondaries: []catalog.SecondaryDef{
		{Name: "aligned", PartitionAligned: true},
		{Name: "by_val"},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable(catalog.TableDef{Name: "cl", Boundaries: bounds, Clustered: true}); err != nil {
		t.Fatal(err)
	}
	return e
}

// exec commits one single-action transaction on table at key.
func exec(t *testing.T, sess *Session, table string, key uint64, fn func(c *Ctx, k []byte) error) {
	t.Helper()
	k := keyenc.Uint64Key(key)
	if _, err := sess.Execute(NewRequest(Action{Table: table, Key: k, Exec: func(c *Ctx) error {
		return fn(c, k)
	}})); err != nil {
		t.Fatal(err)
	}
}

// laneDigest hashes every table's rows and secondary-index entries in key
// order and checks each index's structural invariants.
func laneDigest(t *testing.T, e *Engine) string {
	t.Helper()
	h := fnv.New64a()
	for _, name := range []string{"cl", "kv"} {
		tbl, err := e.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Primary.CheckInvariants(); err != nil {
			t.Fatalf("%s primary: %v", name, err)
		}
		rows := 0
		if err := e.NewLoader().ReadRange(name, nil, nil, func(k, rec []byte) bool {
			fmt.Fprintf(h, "%s/%x=%x;", name, k, rec)
			rows++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s rows %d;", name, rows)
		idxNames := make([]string, 0, len(tbl.Secondaries))
		for n := range tbl.Secondaries {
			idxNames = append(idxNames, n)
		}
		sort.Strings(idxNames)
		for _, n := range idxNames {
			idx := tbl.Secondaries[n]
			if err := idx.CheckInvariants(); err != nil {
				t.Fatalf("%s.%s: %v", name, n, err)
			}
			if err := idx.Ascend(nil, func(k, v []byte) bool {
				fmt.Fprintf(h, "%s.%s/%x=%x;", name, n, k, v)
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestRecoverParallelMatchesInline recovers the same log twice for every
// design — once with the snapshot fanned out to the partition workers, once
// with the same load loop run inline on one goroutine — and requires both to
// reproduce the crashed engine's contents exactly.  The checkpoint follows
// boundary moves, covers a partition-aligned and a non-aligned secondary
// index plus a clustered table, and the parallel copy is recovered twice to
// check that replaying the snapshot over recovered data is idempotent.
func TestRecoverParallelMatchesInline(t *testing.T) {
	for _, design := range AllDesigns() {
		t.Run(design.String(), func(t *testing.T) {
			dir := t.TempDir()
			e := laneEngine(t, dir, design)
			defer e.Close()
			l := e.NewLoader()
			for i := uint64(1); i <= 1000; i++ {
				k := keyenc.Uint64Key(i)
				for _, err := range []error{
					l.Insert("kv", k, []byte(fmt.Sprintf("row-%d", i))),
					l.InsertSecondary("kv", "aligned", k, k),
					l.InsertSecondary("kv", "by_val", keyenc.Uint64Key(5000-i), k),
					l.Insert("cl", k, []byte(fmt.Sprintf("c-%d", i))),
				} {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			// Move boundaries off the schema's values before the checkpoint,
			// so the lanes must follow the recovered routing.
			for _, mv := range []struct {
				table string
				idx   int
				key   uint64
			}{{"kv", 1, 101}, {"kv", 2, 353}, {"cl", 3, 900}} {
				if _, err := e.Rebalance(mv.table, mv.idx, keyenc.Uint64Key(mv.key)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Committed log tail: overwrites, new keys, deletes, on both
			// tables and both secondary indexes.
			sess := e.NewSession()
			for i := uint64(900); i <= 1100; i += 3 {
				exec(t, sess, "kv", i, func(c *Ctx, k []byte) error {
					if err := c.Upsert("kv", k, []byte(fmt.Sprintf("tail-%d", i))); err != nil {
						return err
					}
					return c.InsertSecondary("kv", "by_val", keyenc.Uint64Key(9000+i), k)
				})
				exec(t, sess, "cl", i, func(c *Ctx, k []byte) error {
					return c.Upsert("cl", k, []byte("tail"))
				})
			}
			for i := uint64(10); i <= 600; i += 41 {
				exec(t, sess, "kv", i, func(c *Ctx, k []byte) error {
					if err := c.Delete("kv", k); err != nil {
						return err
					}
					return c.DeleteSecondary("kv", "aligned", k)
				})
			}
			sess.Close()
			want := laneDigest(t, e)

			par := laneEngine(t, dir, design)
			defer par.Close()
			info, err := par.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if info.Replay.SnapshotEntries != 4000 || info.BoundariesRestored == 0 {
				t.Fatalf("recovery loaded %d snapshot entries and restored %d boundaries", info.Replay.SnapshotEntries, info.BoundariesRestored)
			}
			if got := laneDigest(t, par); got != want {
				t.Fatalf("parallel recovery digest %s, want %s", got, want)
			}
			checkLanes(t, par)
			if _, err := par.Recover(); err != nil {
				t.Fatalf("second recovery: %v", err)
			}
			if got := laneDigest(t, par); got != want {
				t.Fatalf("digest after replaying the snapshot twice %s, want %s", got, want)
			}

			inl := laneEngine(t, dir, design)
			defer inl.Close()
			if _, err := inl.recoverInto(inlineTarget{inl.NewLoader()}); err != nil {
				t.Fatal(err)
			}
			if got := laneDigest(t, inl); got != want {
				t.Fatalf("inline recovery digest %s, want %s", got, want)
			}
		})
	}
}

// checkLanes verifies that snapshotLanes covers every snapshot entry exactly
// once and hands each worker only what it owns: primary entries its
// partition routes to, entries of its own aligned-secondary sub-tree.
func checkLanes(t *testing.T, e *Engine) {
	t.Helper()
	a, err := recovery.Analyze(e.Log())
	if err != nil {
		t.Fatal(err)
	}
	lanes := e.snapshotLanes(a.Snapshot)
	shared := len(lanes) - 1
	workers := 1
	if e.pool != nil {
		workers = e.pool.Size()
	}
	if shared != workers {
		t.Fatalf("%d lanes for %d workers", len(lanes), workers)
	}
	seen := 0
	for lane, spans := range lanes {
		for _, sp := range spans {
			c := a.Snapshot.Chunks[sp.Chunk]
			for _, k := range c.Keys[sp.Lo:sp.Hi] {
				seen++
				owner := shared
				switch tbl, _ := e.Table(c.Table); {
				case c.Index == "":
					owner = e.PartitionFor(c.Table, k) % workers
				case tbl.Secondaries[c.Index].NumPartitions() > 1:
					owner = tbl.Secondaries[c.Index].PartitionIndexFor(k) % workers
				}
				if lane != owner {
					t.Fatalf("%s.%s key %x in lane %d, owner %d", c.Table, c.Index, k, lane, owner)
				}
			}
		}
	}
	if seen != a.Snapshot.Entries() {
		t.Fatalf("lanes hold %d entries, snapshot %d", seen, a.Snapshot.Entries())
	}
}

// TestRecoverFailingLaneSurfaces plants a snapshot entry too large for a
// heap page in partition 2: its lane fails, the error comes back from
// Recover once every lane has stopped, and the workers keep serving.
func TestRecoverFailingLaneSurfaces(t *testing.T) {
	for _, design := range AllDesigns() {
		t.Run(design.String(), func(t *testing.T) {
			e := laneEngine(t, t.TempDir(), design)
			defer e.Close()
			chunk := logrec.CheckpointChunk{Table: "kv"}
			for i := uint64(1); i <= 1000; i += 7 {
				v := []byte("ok")
				if i == 603 {
					v = make([]byte, page.MaxRecordSize+1)
				}
				chunk.Keys = append(chunk.Keys, keyenc.Uint64Key(i))
				chunk.Values = append(chunk.Values, v)
			}
			begin := e.Log().Append(&wal.Record{Type: wal.RecCheckpoint, Payload: logrec.EncodeCheckpointChunk(chunk)})
			e.Log().Append(&wal.Record{Type: wal.RecCheckpoint, Payload: logrec.EncodeCheckpointEnd(logrec.CheckpointEnd{
				BeginLSN: uint64(begin), Chunks: 1, Tables: 1,
			})})

			before := runtime.NumGoroutine()
			if _, err := e.Recover(); !errors.Is(err, heap.ErrRecordSize) {
				t.Fatalf("Recover error %v, want %v", err, heap.ErrRecordSize)
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Recover, %d before", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
			sess := e.NewSession()
			defer sess.Close()
			exec(t, sess, "kv", 602, func(c *Ctx, k []byte) error { return c.Upsert("kv", k, []byte("after")) })
		})
	}
}
