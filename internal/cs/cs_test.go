package cs

import (
	"sync"
	"testing"
)

func TestRecordAndSnapshot(t *testing.T) {
	var s Stats
	s.Record(LockMgr, false)
	s.Record(LockMgr, true)
	s.Record(Latching, false)
	s.RecordClass(LogMgr, Composable, false)
	snap := s.Snapshot()
	if snap.Entered[LockMgr] != 2 || snap.Contended[LockMgr] != 1 {
		t.Fatalf("lock mgr counters wrong: %+v", snap)
	}
	if snap.Entered[Latching] != 1 || snap.Entered[LogMgr] != 1 {
		t.Fatalf("counters wrong: %+v", snap)
	}
	if snap.Total() != 4 || snap.TotalContended() != 1 {
		t.Fatalf("totals wrong: %d %d", snap.Total(), snap.TotalContended())
	}
	if snap.ByClass[Composable] != 1 {
		t.Fatalf("class counters wrong: %+v", snap.ByClass)
	}
}

func TestSubAndPerTxn(t *testing.T) {
	var s Stats
	for i := 0; i < 10; i++ {
		s.Record(Bpool, i%2 == 0)
	}
	before := s.Snapshot()
	for i := 0; i < 20; i++ {
		s.Record(Bpool, false)
	}
	delta := s.Snapshot().Sub(before)
	if delta.Entered[Bpool] != 20 || delta.Contended[Bpool] != 0 {
		t.Fatalf("delta wrong: %+v", delta)
	}
	b := delta.PerTxn(10)
	if b.Entered[Bpool] != 2.0 || b.Total != 2.0 {
		t.Fatalf("per-txn wrong: %+v", b)
	}
	if zero := (Snapshot{}).PerTxn(0); zero.Total != 0 {
		t.Fatal("per-txn of zero transactions should be zero")
	}
}

func TestNilStatsSafe(t *testing.T) {
	var s *Stats
	s.Record(LockMgr, true) // must not panic
	s.RecordN(Latching, 5)
	s.Reset()
	if s.Snapshot().Total() != 0 {
		t.Fatal("nil stats should snapshot to zero")
	}
}

func TestRecordNAndReset(t *testing.T) {
	var s Stats
	s.RecordN(XctMgr, 7)
	if s.Snapshot().Entered[XctMgr] != 7 {
		t.Fatal("RecordN failed")
	}
	s.Reset()
	if s.Snapshot().Total() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestOutOfRangeCategory(t *testing.T) {
	var s Stats
	s.Record(Category(99), false)
	if s.Snapshot().Entered[Uncategorized] != 1 {
		t.Fatal("out-of-range category not mapped to Uncategorized")
	}
}

func TestDefaultClasses(t *testing.T) {
	if DefaultClass(MessagePassing) != Fixed || DefaultClass(XctMgr) != Fixed {
		t.Fatal("message passing / xct mgr should be fixed")
	}
	if DefaultClass(LogMgr) != Composable {
		t.Fatal("log mgr should be composable")
	}
	if DefaultClass(LockMgr) != Unscalable || DefaultClass(Latching) != Unscalable {
		t.Fatal("lock mgr / latching should be unscalable")
	}
}

func TestLabels(t *testing.T) {
	for _, c := range Categories() {
		if c.String() == "" {
			t.Fatalf("category %d has no label", c)
		}
	}
	for _, cl := range []Class{Unscalable, Fixed, Composable} {
		if cl.String() == "" {
			t.Fatal("class label missing")
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	var s Stats
	var wg sync.WaitGroup
	const goroutines = 16
	const per = 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Record(Latching, i%10 == 0)
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Entered[Latching] != goroutines*per {
		t.Fatalf("lost updates: %d", snap.Entered[Latching])
	}
	if snap.Contended[Latching] != goroutines*per/10 {
		t.Fatalf("contended count wrong: %d", snap.Contended[Latching])
	}
}

func TestShardedRecordingExactTotals(t *testing.T) {
	var s Stats
	var wg sync.WaitGroup
	const goroutines = 8
	const per = 2000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.RecordAt(uint64(g*per+i), Bpool, i%4 == 0)
				s.Record(Metadata, false)
				s.RecordClass(MessagePassing, Fixed, i%2 == 0)
			}
			s.RecordN(LogMgr, per)
		}(g)
	}
	wg.Wait()
	snap := s.Snapshot()
	const n = goroutines * per
	if snap.Entered[Bpool] != n || snap.Contended[Bpool] != n/4 {
		t.Fatalf("Bpool entered %d contended %d, want %d and %d", snap.Entered[Bpool], snap.Contended[Bpool], n, n/4)
	}
	if snap.Entered[Metadata] != n || snap.Entered[MessagePassing] != n || snap.Contended[MessagePassing] != n/2 || snap.Entered[LogMgr] != n {
		t.Fatalf("counters wrong: %+v", snap)
	}
	if snap.ByClass[Unscalable] != 2*n || snap.ByClass[Fixed] != n || snap.ByClass[Composable] != n {
		t.Fatalf("class counters wrong: %+v", snap.ByClass)
	}
	if snap.Total() != 4*n || snap.TotalContended() != n/4+n/2 {
		t.Fatalf("totals %d/%d", snap.Total(), snap.TotalContended())
	}
	s.Reset()
	if s.Snapshot() != (Snapshot{}) {
		t.Fatal("Reset left counts behind")
	}
	var nilStats *Stats
	nilStats.RecordAt(7, Bpool, true) // must not panic
}
