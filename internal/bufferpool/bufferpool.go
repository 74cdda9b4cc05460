// Package bufferpool implements the buffer manager: the layer that caches
// database pages in memory, hands out latched page frames to the access
// methods, and writes dirty pages back to the backing store.
//
// Every page access in the conventional and logically-partitioned designs
// goes through Fix/Unfix and acquires the frame's page latch; the PLP
// designs bypass the latch (but not the fix) for pages owned by a single
// partition worker.  The buffer pool's own internal state (the page table)
// is split by page ID into numStripes (64) cache-line-padded stripes, each
// guarded by its own mutex and counting its own fixes, so workers fixing
// different pages rarely meet.  Every Fix, NewPage and FreePage reports its
// stripe acquisition to the critical-section statistics under the Bpool
// category, exactly as the paper's Figure 1 accounts for them.
//
// The experiments in the paper run with memory-resident databases, so the
// default configuration never evicts.  A simple CLOCK eviction policy is
// available when a capacity limit is configured, which also exercises the
// page-cleaner path: the capacity is pool-wide, and a full pool evicts from
// the stripes in turn, each running CLOCK over its own frames.
package bufferpool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"plp/internal/cs"
	"plp/internal/latch"
	"plp/internal/page"
)

// Errors returned by the buffer pool.
var (
	ErrNoSuchPage   = errors.New("bufferpool: page does not exist")
	ErrPoolFull     = errors.New("bufferpool: no evictable frame available")
	ErrPagePinned   = errors.New("bufferpool: page still pinned")
	ErrFreedTwice   = errors.New("bufferpool: page freed twice")
	ErrStoreMissing = errors.New("bufferpool: page missing from backing store")
)

// Store is the persistent backing store for pages.  The production
// configuration uses MemStore (the paper's experiments are memory
// resident); tests may supply fault-injecting implementations.
type Store interface {
	// Read returns the serialized contents of the page.
	Read(id page.ID) ([]byte, error)
	// Write persists the serialized contents of the page.
	Write(id page.ID, data []byte) error
	// Allocate reserves a new page ID.
	Allocate() page.ID
	// Free releases a page ID (the page may be reused).
	Free(id page.ID) error
	// NumAllocated returns the number of currently allocated pages.
	NumAllocated() int
}

// MemStore is an in-memory Store.
type MemStore struct {
	mu     sync.Mutex
	pages  map[page.ID][]byte
	nextID uint64
	free   []page.ID
}

// NewMemStore returns an empty in-memory backing store.
func NewMemStore() *MemStore {
	return &MemStore{pages: make(map[page.ID][]byte)}
}

// Read implements Store.
func (m *MemStore) Read(id page.ID) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.pages[id]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrStoreMissing, id)
	}
	return data, nil
}

// Write implements Store.
func (m *MemStore) Write(id page.ID, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages[id] = data
	return nil
}

// Allocate implements Store.
func (m *MemStore) Allocate() page.ID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		return id
	}
	m.nextID++
	return page.ID(m.nextID)
}

// Free implements Store.
func (m *MemStore) Free(id page.ID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.pages, id)
	m.free = append(m.free, id)
	return nil
}

// NumAllocated implements Store.
func (m *MemStore) NumAllocated() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int(m.nextID) - len(m.free)
}

// Frame is an in-memory slot holding one page together with its latch and
// pin count.  Access methods receive *Frame from Fix and must Unfix it when
// done.
type Frame struct {
	page  *page.Page
	latch *latch.Latch
	pin   atomic.Int32
	dirty atomic.Bool
	// clock reference bit for eviction
	ref atomic.Bool
}

// Page returns the page cached in the frame.
func (f *Frame) Page() *page.Page { return f.page }

// Latch returns the frame's page latch.
func (f *Frame) Latch() *latch.Latch { return f.latch }

// MarkDirty records that the page has been modified and must be written
// back before eviction.
func (f *Frame) MarkDirty() { f.dirty.Store(true) }

// Dirty reports whether the page has unflushed modifications.
func (f *Frame) Dirty() bool { return f.dirty.Load() }

// PinCount returns the current pin count (for tests and assertions).
func (f *Frame) PinCount() int { return int(f.pin.Load()) }

// Config configures a buffer pool.
type Config struct {
	// Capacity limits the number of resident frames.  Zero means
	// unbounded (memory-resident database, as in the paper).
	Capacity int
	// LatchStats receives page-latch accounting; may be nil.
	LatchStats *latch.Stats
	// CSStats receives critical-section accounting; may be nil.
	CSStats *cs.Stats
}

// numStripes is the number of page-table stripes; a power of two.
const numStripes = 64

// cacheLine is the padding unit that keeps stripes on separate cache lines.
const cacheLine = 64

// stripeState is one stripe of the page table: the frames whose page IDs
// map to it, their CLOCK order, and the number of fixes it served.  Every
// field is guarded by mu.
type stripeState struct {
	mu    sync.Mutex
	table map[page.ID]*Frame
	fifo  []page.ID // resident pages in allocation order, for CLOCK eviction
	clock int
	fixes uint64
}

// stripe pads stripeState to whole cache lines.
type stripe struct {
	stripeState
	_ [cacheLine - unsafe.Sizeof(stripeState{})%cacheLine]byte
}

// Pool is the buffer manager.
type Pool struct {
	store Store
	cfg   Config

	stripes [numStripes]stripe
	nMiss   atomic.Uint64

	// With Capacity > 0, capMu serializes every change to the set of
	// resident frames, so resident is exact and an eviction scan sees a
	// stable pool; hand is the stripe the next eviction starts from.
	capMu    sync.Mutex
	resident int
	hand     int
}

// New returns a buffer pool over the given store.
func New(store Store, cfg Config) *Pool {
	bp := &Pool{store: store, cfg: cfg}
	for i := range bp.stripes {
		bp.stripes[i].table = make(map[page.ID]*Frame)
	}
	return bp
}

// NewMemory returns a buffer pool over a fresh in-memory store with no
// capacity limit.
func NewMemory(cfg Config) *Pool {
	return New(NewMemStore(), cfg)
}

// Store returns the backing store (used by consistency checks and tests).
func (bp *Pool) Store() Store { return bp.store }

// latchKindFor maps a page kind to the latch accounting bucket.
func latchKindFor(k page.Kind) latch.PageKind {
	switch {
	case k.IsIndex():
		return latch.KindIndex
	case k == page.KindHeap:
		return latch.KindHeap
	default:
		return latch.KindCatalog
	}
}

// stripeOf returns the stripe holding id.
func (bp *Pool) stripeOf(id page.ID) *stripe {
	return &bp.stripes[uint64(id)%numStripes]
}

// lockStripe enters id's page-table critical section and reports it under
// the Bpool category.
func (bp *Pool) lockStripe(id page.ID) *stripe {
	s := bp.stripeOf(id)
	contended := !s.mu.TryLock()
	if contended {
		s.mu.Lock()
	}
	bp.cfg.CSStats.RecordAt(uint64(id), cs.Bpool, contended)
	return s
}

// install adds f under id to its stripe, evicting first when the pool is at
// Capacity, unless another thread installed the page meanwhile, in which
// case that frame is pinned and returned instead.
func (bp *Pool) install(id page.ID, f *Frame) (*Frame, error) {
	if bp.cfg.Capacity > 0 {
		bp.capMu.Lock()
		defer bp.capMu.Unlock()
		if bp.resident >= bp.cfg.Capacity {
			if err := bp.evictOne(); err != nil {
				return nil, err
			}
		}
	}
	s := bp.lockStripe(id)
	defer s.mu.Unlock()
	if existing, ok := s.table[id]; ok {
		existing.pin.Add(1)
		existing.ref.Store(true)
		return existing, nil
	}
	s.table[id] = f
	if bp.cfg.Capacity > 0 {
		s.fifo = append(s.fifo, id)
		bp.resident++
	}
	return f, nil
}

// NewPage allocates a new page of the given kind, fixes it, and returns the
// frame with pin count 1.  The page starts dirty.
func (bp *Pool) NewPage(kind page.Kind) (*Frame, error) {
	id := bp.store.Allocate()
	p := page.New(id, kind)
	f := &Frame{
		page:  p,
		latch: latch.New(latchKindFor(kind), bp.cfg.LatchStats, bp.cfg.CSStats),
	}
	f.pin.Store(1)
	f.dirty.Store(true)
	f.ref.Store(true)

	if _, err := bp.install(id, f); err != nil {
		return nil, err
	}

	// Persist an initial image so that a later miss can always read it.
	if err := bp.store.Write(id, p.Marshal()); err != nil {
		return nil, err
	}
	return f, nil
}

// Fix pins the page into the pool and returns its frame.  The caller must
// call Unfix exactly once for every successful Fix.
func (bp *Pool) Fix(id page.ID) (*Frame, error) {
	if id == page.InvalidID {
		return nil, ErrNoSuchPage
	}
	s := bp.lockStripe(id)
	s.fixes++
	if f, ok := s.table[id]; ok {
		f.pin.Add(1)
		f.ref.Store(true)
		s.mu.Unlock()
		return f, nil
	}
	s.mu.Unlock()

	// Miss: read from the backing store outside the page-table critical
	// section, then install.
	bp.nMiss.Add(1)
	data, err := bp.store.Read(id)
	if err != nil {
		return nil, err
	}
	p, err := page.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	f := &Frame{
		page:  p,
		latch: latch.New(latchKindFor(p.Kind()), bp.cfg.LatchStats, bp.cfg.CSStats),
	}
	f.pin.Store(1)
	f.ref.Store(true)
	return bp.install(id, f)
}

// Unfix releases one pin on the frame.  If dirty is true the frame is marked
// dirty.
func (bp *Pool) Unfix(f *Frame, dirty bool) {
	if dirty {
		f.dirty.Store(true)
	}
	if n := f.pin.Add(-1); n < 0 {
		panic("bufferpool: unfix without matching fix")
	}
}

// evictOne removes one unpinned frame from the pool, visiting the stripes
// in turn from the eviction hand.  It fails with ErrPoolFull when every
// resident frame is pinned.  Caller holds bp.capMu.
func (bp *Pool) evictOne() error {
	for i := 0; i < numStripes; i++ {
		bp.hand = (bp.hand + 1) % numStripes
		s := &bp.stripes[bp.hand]
		s.mu.Lock()
		evicted, err := s.evictLocked(bp.store)
		s.mu.Unlock()
		if err != nil {
			return err
		}
		if evicted {
			bp.resident--
			return nil
		}
	}
	return ErrPoolFull
}

// evictLocked runs CLOCK over the stripe's frames and removes one unpinned
// frame, flushing it if dirty.  It reports false when every frame of the
// stripe is pinned.  Caller holds s.mu.
func (s *stripe) evictLocked(store Store) (bool, error) {
	for attempts := 0; attempts < 2*len(s.fifo); attempts++ {
		s.clock = (s.clock + 1) % len(s.fifo)
		id := s.fifo[s.clock]
		f := s.table[id]
		if f.pin.Load() > 0 {
			continue
		}
		if f.ref.Swap(false) {
			continue // second chance
		}
		if f.dirty.Load() {
			if err := store.Write(id, f.page.Marshal()); err != nil {
				return false, err
			}
			f.dirty.Store(false)
		}
		delete(s.table, id)
		s.fifo = append(s.fifo[:s.clock], s.fifo[s.clock+1:]...)
		return true, nil
	}
	return false, nil
}

// dropFromClock removes id from the stripe's CLOCK order.  Caller holds
// s.mu.
func (s *stripe) dropFromClock(id page.ID) {
	for i, fid := range s.fifo {
		if fid == id {
			s.fifo = append(s.fifo[:i], s.fifo[i+1:]...)
			return
		}
	}
}

// FreePage removes the page from the pool and the backing store.  The page
// must be unpinned.
func (bp *Pool) FreePage(id page.ID) error {
	if bp.cfg.Capacity > 0 {
		bp.capMu.Lock()
		defer bp.capMu.Unlock()
	}
	s := bp.lockStripe(id)
	if f, ok := s.table[id]; ok {
		if f.pin.Load() > 0 {
			s.mu.Unlock()
			return ErrPagePinned
		}
		delete(s.table, id)
		if bp.cfg.Capacity > 0 {
			s.dropFromClock(id)
			bp.resident--
		}
	}
	s.mu.Unlock()
	return bp.store.Free(id)
}

// lookup returns the resident frame of id, or nil.
func (bp *Pool) lookup(id page.ID) *Frame {
	s := bp.stripeOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table[id]
}

// FlushPage writes the page back to the store if it is dirty.
func (bp *Pool) FlushPage(id page.ID) error {
	f := bp.lookup(id)
	if f == nil || !f.dirty.Load() {
		return nil
	}
	// The cleaner latches the page in shared mode so that it captures a
	// consistent image while the owner may keep working (the paper notes
	// page cleaning is read-only for the cleaned partition).
	f.latch.Acquire(latch.Shared)
	data := f.page.Marshal()
	f.dirty.Store(false)
	f.latch.Release(latch.Shared)
	return bp.store.Write(id, data)
}

// FlushAll writes every dirty page back to the store.
func (bp *Pool) FlushAll() error {
	for _, id := range bp.DirtyPageIDs() {
		if err := bp.FlushPage(id); err != nil {
			return err
		}
	}
	return nil
}

// DirtyPageIDs returns the IDs of all dirty resident pages (used by the page
// cleaner and by the PLP per-partition cleaning path).
func (bp *Pool) DirtyPageIDs() []page.ID {
	out := make([]page.ID, 0)
	for i := range bp.stripes {
		s := &bp.stripes[i]
		s.mu.Lock()
		for id, f := range s.table {
			if f.dirty.Load() {
				out = append(out, id)
			}
		}
		s.mu.Unlock()
	}
	return out
}

// Stats reports buffer pool activity.
type Stats struct {
	Fixes    uint64
	Misses   uint64
	Resident int
}

// Stats returns a snapshot of buffer pool activity, summed over the stripes.
func (bp *Pool) Stats() Stats {
	st := Stats{Misses: bp.nMiss.Load()}
	for i := range bp.stripes {
		s := &bp.stripes[i]
		s.mu.Lock()
		st.Fixes += s.fixes
		st.Resident += len(s.table)
		s.mu.Unlock()
	}
	return st
}

// NumResident returns the number of pages currently cached.
func (bp *Pool) NumResident() int {
	return bp.Stats().Resident
}
