package recovery_test

import (
	"fmt"
	"testing"

	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/internal/logrec"
	"plp/internal/recovery"
	"plp/internal/wal"
)

// buildLog creates a log with n committed single-op transactions.
func buildLog(n int) wal.Log {
	log := wal.NewConsolidated(nil)
	for i := 0; i < n; i++ {
		tx := uint64(i + 1)
		log.Append(&wal.Record{Txn: tx, Type: wal.RecInsert, Payload: logrec.EncodeModification(logrec.Modification{
			Table: "t",
			Key:   keyenc.Uint64Key(uint64(i + 1)),
			After: make([]byte, 100),
		})})
		log.Append(&wal.Record{Txn: tx, Type: wal.RecCommit})
	}
	return log
}

func BenchmarkAnalyze(b *testing.B) {
	log := buildLog(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := recovery.Analyze(log)
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Ops) != 10_000 {
			b.Fatalf("ops %d", len(a.Ops))
		}
	}
}

// BenchmarkReplayIntoEngine measures logical replay throughput into a fresh
// PLP-Leaf engine (records per op are 100 bytes).
func BenchmarkReplayIntoEngine(b *testing.B) {
	const ops = 10_000
	log := buildLog(ops)
	a, err := recovery.Analyze(log)
	if err != nil {
		b.Fatal(err)
	}
	boundaries := [][]byte{keyenc.Uint64Key(ops / 4), keyenc.Uint64Key(ops / 2), keyenc.Uint64Key(3 * ops / 4)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := engine.New(engine.Options{Design: engine.PLPLeaf, Partitions: 4})
		if _, err := e.CreateTable(catalog.TableDef{Name: "t", Boundaries: boundaries}); err != nil {
			b.Fatal(err)
		}
		st, err := recovery.Replay(a, e.NewLoader())
		if err != nil {
			b.Fatal(err)
		}
		if st.Applied != ops {
			b.Fatalf("applied %d", st.Applied)
		}
		_ = e.Close()
	}
	b.ReportMetric(float64(ops*b.N)/b.Elapsed().Seconds(), "ops-replayed/s")
}

// BenchmarkCheckpoint measures snapshotting a loaded table into the log.
func BenchmarkCheckpoint(b *testing.B) {
	const rows = 20_000
	e := engine.New(engine.Options{Design: engine.PLPLeaf, Partitions: 4})
	defer e.Close()
	boundaries := [][]byte{keyenc.Uint64Key(rows / 4), keyenc.Uint64Key(rows / 2), keyenc.Uint64Key(3 * rows / 4)}
	if _, err := e.CreateTable(catalog.TableDef{Name: "t", Boundaries: boundaries}); err != nil {
		b.Fatal(err)
	}
	l := e.NewLoader()
	for i := uint64(1); i <= rows; i++ {
		if err := l.Insert("t", keyenc.Uint64Key(i), []byte(fmt.Sprintf("record-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := recovery.Checkpoint(e, 0)
		if err != nil {
			b.Fatal(err)
		}
		if st.Entries != rows {
			b.Fatalf("entries %d", st.Entries)
		}
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "entries-snapshotted/s")
}

// BenchmarkRecoverSnapshot measures restart recovery of a checkpoint: a
// 4-partition PLP-Leaf engine holding 200k rows plus a non-partition-aligned
// secondary index is checkpointed to a durable log, then each iteration
// opens a fresh engine on that log and times Engine.Recover, which loads
// the snapshot on the partition workers.
func BenchmarkRecoverSnapshot(b *testing.B) {
	const rows = 200_000
	dir := b.TempDir()
	boundaries := [][]byte{keyenc.Uint64Key(rows / 4), keyenc.Uint64Key(rows / 2), keyenc.Uint64Key(3 * rows / 4)}
	open := func() *engine.Engine {
		e, err := engine.Open(engine.Options{Design: engine.PLPLeaf, Partitions: 4, DataDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.CreateTable(catalog.TableDef{
			Name:        "t",
			Boundaries:  boundaries,
			Secondaries: []catalog.SecondaryDef{{Name: "by_val"}},
		}); err != nil {
			b.Fatal(err)
		}
		return e
	}
	src := open()
	l := src.NewLoader()
	for i := uint64(1); i <= rows; i++ {
		k := keyenc.Uint64Key(i)
		if err := l.Insert("t", k, []byte(fmt.Sprintf("record-%08d-%040d", i, i))); err != nil {
			b.Fatal(err)
		}
		if err := l.InsertSecondary("t", "by_val", keyenc.Uint64Key(rows+1-i), k); err != nil {
			b.Fatal(err)
		}
	}
	st, err := src.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	if err := src.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := open()
		b.StartTimer()
		info, err := e.Recover()
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if info.Replay.SnapshotEntries != st.Entries {
			b.Fatalf("loaded %d snapshot entries, want %d", info.Replay.SnapshotEntries, st.Entries)
		}
		_ = e.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(st.Entries*b.N)/b.Elapsed().Seconds(), "entries/s")
}
