package bufferpool

import (
	"fmt"
	"sync"
	"testing"

	"plp/internal/cs"
	"plp/internal/latch"
	"plp/internal/page"
)

func newPool(capacity int) *Pool {
	return NewMemory(Config{Capacity: capacity, LatchStats: &latch.Stats{}, CSStats: &cs.Stats{}})
}

func TestNewPageAndFix(t *testing.T) {
	bp := newPool(0)
	f, err := bp.NewPage(page.KindHeap)
	if err != nil {
		t.Fatal(err)
	}
	id := f.Page().ID()
	if id == page.InvalidID {
		t.Fatal("invalid id allocated")
	}
	if f.PinCount() != 1 {
		t.Fatalf("pin=%d", f.PinCount())
	}
	if _, err := f.Page().Add([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	bp.Unfix(f, true)

	g, err := bp.Fix(id)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := g.Page().Get(0)
	if err != nil || string(rec) != "hello" {
		t.Fatalf("rec=%q err=%v", rec, err)
	}
	bp.Unfix(g, false)
	if _, err := bp.Fix(page.InvalidID); err == nil {
		t.Fatal("fixed the invalid page")
	}
}

func TestFixMissingPage(t *testing.T) {
	bp := newPool(0)
	if _, err := bp.Fix(page.ID(9999)); err == nil {
		t.Fatal("expected error for unknown page")
	}
}

func TestUnfixPanicsWithoutFix(t *testing.T) {
	bp := newPool(0)
	f, _ := bp.NewPage(page.KindHeap)
	bp.Unfix(f, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on extra unfix")
		}
	}()
	bp.Unfix(f, false)
}

func TestEvictionWritesBackDirtyPages(t *testing.T) {
	bp := newPool(4)
	var ids []page.ID
	for i := 0; i < 16; i++ {
		f, err := bp.NewPage(page.KindHeap)
		if err != nil {
			t.Fatalf("NewPage %d: %v", i, err)
		}
		if _, err := f.Page().Add([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.Page().ID())
		bp.Unfix(f, true)
	}
	if bp.NumResident() > 4 {
		t.Fatalf("capacity not enforced: %d resident", bp.NumResident())
	}
	// Every page must still be readable (evicted ones come back from the
	// store with their contents).
	for i, id := range ids {
		f, err := bp.Fix(id)
		if err != nil {
			t.Fatalf("Fix %v: %v", id, err)
		}
		rec, err := f.Page().Get(0)
		if err != nil || string(rec) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("page %v content lost: %q %v", id, rec, err)
		}
		bp.Unfix(f, false)
	}
	if bp.Stats().Misses == 0 {
		t.Fatal("expected buffer pool misses with a small capacity")
	}
}

func TestEvictionRefusesWhenAllPinned(t *testing.T) {
	bp := newPool(2)
	f1, _ := bp.NewPage(page.KindHeap)
	f2, _ := bp.NewPage(page.KindHeap)
	if _, err := bp.NewPage(page.KindHeap); err == nil {
		t.Fatal("expected ErrPoolFull with every frame pinned")
	}
	bp.Unfix(f1, false)
	bp.Unfix(f2, false)
	if _, err := bp.NewPage(page.KindHeap); err != nil {
		t.Fatalf("allocation after unpin failed: %v", err)
	}
}

func TestFreePage(t *testing.T) {
	bp := newPool(0)
	f, _ := bp.NewPage(page.KindHeap)
	id := f.Page().ID()
	if err := bp.FreePage(id); err == nil {
		t.Fatal("freed a pinned page")
	}
	bp.Unfix(f, false)
	if err := bp.FreePage(id); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Fix(id); err == nil {
		t.Fatal("fixed a freed page")
	}
}

func TestFlushAllAndDirtyTracking(t *testing.T) {
	bp := newPool(0)
	f, _ := bp.NewPage(page.KindHeap)
	id := f.Page().ID()
	_, _ = f.Page().Add([]byte("x"))
	bp.Unfix(f, true)
	if got := bp.DirtyPageIDs(); len(got) != 1 || got[0] != id {
		t.Fatalf("dirty ids wrong: %v", got)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := bp.DirtyPageIDs(); len(got) != 0 {
		t.Fatalf("pages still dirty after flush: %v", got)
	}
	data, err := bp.Store().Read(id)
	if err != nil {
		t.Fatal(err)
	}
	p, err := page.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := p.Get(0); err != nil || string(rec) != "x" {
		t.Fatalf("store content wrong: %q %v", rec, err)
	}
}

func TestLatchKindAssignment(t *testing.T) {
	ls := &latch.Stats{}
	bp := NewMemory(Config{LatchStats: ls, CSStats: &cs.Stats{}})
	heapFrame, _ := bp.NewPage(page.KindHeap)
	idxFrame, _ := bp.NewPage(page.KindIndexLeaf)
	catFrame, _ := bp.NewPage(page.KindMetadata)
	heapFrame.Latch().Acquire(latch.Shared)
	heapFrame.Latch().Release(latch.Shared)
	idxFrame.Latch().Acquire(latch.Shared)
	idxFrame.Latch().Release(latch.Shared)
	catFrame.Latch().Acquire(latch.Shared)
	catFrame.Latch().Release(latch.Shared)
	snap := ls.Snapshot()
	if snap.Acquired[latch.KindHeap] != 1 || snap.Acquired[latch.KindIndex] != 1 || snap.Acquired[latch.KindCatalog] != 1 {
		t.Fatalf("latch kinds misassigned: %+v", snap)
	}
	bp.Unfix(heapFrame, false)
	bp.Unfix(idxFrame, false)
	bp.Unfix(catFrame, false)
}

func TestBpoolCriticalSectionsReported(t *testing.T) {
	cstats := &cs.Stats{}
	bp := NewMemory(Config{CSStats: cstats, LatchStats: &latch.Stats{}})
	f, _ := bp.NewPage(page.KindHeap)
	bp.Unfix(f, false)
	for i := 0; i < 10; i++ {
		g, err := bp.Fix(f.Page().ID())
		if err != nil {
			t.Fatal(err)
		}
		bp.Unfix(g, false)
	}
	if cstats.Snapshot().Entered[cs.Bpool] == 0 {
		t.Fatal("buffer pool critical sections not reported")
	}
}

func TestConcurrentFixUnfix(t *testing.T) {
	bp := newPool(0)
	var ids []page.ID
	for i := 0; i < 32; i++ {
		f, err := bp.NewPage(page.KindHeap)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.Page().ID())
		bp.Unfix(f, true)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := ids[(g*31+i)%len(ids)]
				f, err := bp.Fix(id)
				if err != nil {
					t.Errorf("Fix: %v", err)
					return
				}
				f.Latch().Acquire(latch.Shared)
				f.Latch().Release(latch.Shared)
				bp.Unfix(f, false)
			}
		}(g)
	}
	wg.Wait()
	for _, id := range ids {
		f, err := bp.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.PinCount() != 1 {
			t.Fatalf("pin count leaked on %v: %d", id, f.PinCount())
		}
		bp.Unfix(f, false)
	}
}

func TestMemStoreAllocateFreeReuse(t *testing.T) {
	s := NewMemStore()
	a := s.Allocate()
	b := s.Allocate()
	if a == b {
		t.Fatal("duplicate allocation")
	}
	if err := s.Write(a, make([]byte, page.Size)); err != nil {
		t.Fatal(err)
	}
	if s.NumAllocated() != 2 {
		t.Fatalf("allocated=%d", s.NumAllocated())
	}
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(a); err == nil {
		t.Fatal("read of freed page succeeded")
	}
	c := s.Allocate()
	if c != a {
		t.Fatalf("freed id not reused: got %v want %v", c, a)
	}
}

// churnPages has each of goroutines workers allocate perG pages, write a
// payload, re-fix every page to check it, then free every other page.  It
// returns the surviving page IDs and payloads.
func churnPages(t *testing.T, bp *Pool, goroutines, perG int) map[page.ID]string {
	t.Helper()
	var mu sync.Mutex
	kept := make(map[page.ID]string)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]page.ID, perG)
			for i := range ids {
				f, err := bp.NewPage(page.KindHeap)
				if err != nil {
					t.Errorf("NewPage: %v", err)
					return
				}
				if _, err := f.Page().Add([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Errorf("Add: %v", err)
				}
				ids[i] = f.Page().ID()
				bp.Unfix(f, true)
			}
			for i, id := range ids {
				f, err := bp.Fix(id)
				if err != nil {
					t.Errorf("Fix %v: %v", id, err)
					return
				}
				rec, err := f.Page().Get(0)
				if want := fmt.Sprintf("g%d-%d", g, i); err != nil || string(rec) != want {
					t.Errorf("page %v holds %q (%v), want %q", id, rec, err, want)
				}
				bp.Unfix(f, false)
			}
			for i, id := range ids {
				if i%2 == 0 {
					if err := bp.FreePage(id); err != nil {
						t.Errorf("FreePage %v: %v", id, err)
					}
					continue
				}
				mu.Lock()
				kept[id] = fmt.Sprintf("g%d-%d", g, i)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	return kept
}

func TestConcurrentStripesUnbounded(t *testing.T) {
	cstats := &cs.Stats{}
	bp := NewMemory(Config{LatchStats: &latch.Stats{}, CSStats: cstats})
	const goroutines, perG = 8, 200
	kept := churnPages(t, bp, goroutines, perG)
	st := bp.Stats()
	if st.Fixes != goroutines*perG || st.Misses != 0 {
		t.Fatalf("fixes %d misses %d, want %d and 0", st.Fixes, st.Misses, goroutines*perG)
	}
	if st.Resident != len(kept) || bp.NumResident() != len(kept) {
		t.Fatalf("resident %d/%d, want %d", st.Resident, bp.NumResident(), len(kept))
	}
	// One Bpool critical section per NewPage, Fix and FreePage.
	if got, want := cstats.Snapshot().Entered[cs.Bpool], uint64(goroutines*perG*5/2); got != want {
		t.Fatalf("Bpool critical sections %d, want %d", got, want)
	}
	if dirty := len(bp.DirtyPageIDs()); dirty != len(kept) {
		t.Fatalf("%d dirty pages, want %d", dirty, len(kept))
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if dirty := len(bp.DirtyPageIDs()); dirty != 0 {
		t.Fatalf("%d dirty pages after FlushAll", dirty)
	}
}

func TestConcurrentStripesBounded(t *testing.T) {
	const capacity = 16
	bp := newPool(capacity)
	// A frame pinned for the whole run must never be evicted.
	pinned, err := bp.NewPage(page.KindHeap)
	if err != nil {
		t.Fatal(err)
	}
	kept := churnPages(t, bp, 4, 60)
	if n := bp.NumResident(); n > capacity {
		t.Fatalf("%d resident frames exceed capacity %d", n, capacity)
	}
	if bp.Stats().Misses == 0 {
		t.Fatal("no misses: nothing was evicted")
	}
	f, err := bp.Fix(pinned.Page().ID())
	if err != nil {
		t.Fatal(err)
	}
	if f != pinned {
		t.Fatal("pinned frame was evicted")
	}
	bp.Unfix(f, false)
	bp.Unfix(pinned, false)
	// Evicted dirty pages were written back: every survivor reads back.
	for id, want := range kept {
		f, err := bp.Fix(id)
		if err != nil {
			t.Fatalf("Fix %v: %v", id, err)
		}
		if rec, err := f.Page().Get(0); err != nil || string(rec) != want {
			t.Fatalf("page %v holds %q (%v), want %q", id, rec, err, want)
		}
		bp.Unfix(f, false)
	}
}
