// Package tatp implements the TATP (Telecom Application Transaction
// Processing) benchmark used throughout the paper's evaluation: the standard
// seven-transaction mix, plus the specialized request generators the paper
// uses for individual experiments (the read-only GetSubscriberData stream of
// Figure 5, the CallForwarding insert/delete stream of Figure 6, and the
// skewed balance probes of Figure 8).
package tatp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/plan"
)

// Table names.
const (
	TableSubscriber      = "tatp_subscriber"
	TableAccessInfo      = "tatp_access_info"
	TableSpecialFacility = "tatp_special_facility"
	TableCallForwarding  = "tatp_call_forwarding"

	// IndexSubNbr is the non-partition-aligned secondary index mapping
	// sub_nbr to s_id.
	IndexSubNbr = "idx_sub_nbr"
)

// Config configures the workload.
type Config struct {
	// Subscribers is the scale factor (number of subscriber rows).
	Subscribers int
	// Partitions is the number of logical partitions the subscriber id
	// space is split into; it must match the engine's partition count.
	Partitions int
	// Mix selects the request mix.
	Mix Mix
	// HotFraction and HotProbability configure skewed access: a request
	// picks a subscriber from the first HotFraction of the id space with
	// probability HotProbability.  Zero values mean uniform access.
	HotFraction    float64
	HotProbability float64
}

// Mix selects which transactions NextRequest generates.
type Mix int

// Request mixes.
const (
	// MixStandard is the standard TATP 7-transaction mix.
	MixStandard Mix = iota
	// MixGetSubscriberData issues only the read-only GetSubscriberData
	// transaction (Figure 5).
	MixGetSubscriberData
	// MixInsertDeleteCallFwd alternates InsertCallForwarding and
	// DeleteCallForwarding (Figure 6).
	MixInsertDeleteCallFwd
	// MixBalanceProbe issues only the balance probe used by the
	// repartitioning experiment (Figure 8).
	MixBalanceProbe
	// MixUpdateLocation issues only UpdateLocation (write-heavy stress).
	MixUpdateLocation
)

// String returns the mix label.
func (m Mix) String() string {
	switch m {
	case MixStandard:
		return "tatp-standard"
	case MixGetSubscriberData:
		return "tatp-get-subscriber-data"
	case MixInsertDeleteCallFwd:
		return "tatp-insert-delete-callfwd"
	case MixBalanceProbe:
		return "tatp-balance-probe"
	case MixUpdateLocation:
		return "tatp-update-location"
	default:
		return fmt.Sprintf("tatp-mix-%d", int(m))
	}
}

// skew is the mutable access-skew pair, swapped atomically so SetSkew can
// reconfigure a running workload while worker goroutines draw keys.
type skew struct {
	fraction    float64
	probability float64
}

// Workload is a configured TATP workload bound to an engine.
type Workload struct {
	cfg  Config
	skew atomic.Pointer[skew]
}

// New returns a TATP workload.
func New(cfg Config) *Workload {
	if cfg.Subscribers <= 0 {
		cfg.Subscribers = 10000
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	w := &Workload{cfg: cfg}
	w.skew.Store(&skew{fraction: cfg.HotFraction, probability: cfg.HotProbability})
	return w
}

// Name implements the harness workload interface.
func (w *Workload) Name() string { return w.cfg.Mix.String() }

// Config returns the workload configuration.
func (w *Workload) Config() Config { return w.cfg }

// Subscriber is the SUBSCRIBER row.
type Subscriber struct {
	SID         uint64
	SubNbr      string // 15-digit string
	BitFields   [10]bool
	HexFields   [10]uint8
	ByteFields  [10]uint8
	MSCLocation uint32
	VLRLocation uint32
}

// SubNbrOf returns the canonical 15-digit sub_nbr for a subscriber id.
func SubNbrOf(sid uint64) string { return fmt.Sprintf("%015d", sid) }

// Marshal encodes the subscriber row (fixed 54-byte layout plus the
// sub_nbr).
func (s *Subscriber) Marshal() []byte {
	buf := make([]byte, 0, 64)
	var b8 [8]byte
	binary.BigEndian.PutUint64(b8[:], s.SID)
	buf = append(buf, b8[:]...)
	for _, bit := range s.BitFields {
		if bit {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = append(buf, s.HexFields[:]...)
	buf = append(buf, s.ByteFields[:]...)
	var b4 [4]byte
	binary.BigEndian.PutUint32(b4[:], s.MSCLocation)
	buf = append(buf, b4[:]...)
	binary.BigEndian.PutUint32(b4[:], s.VLRLocation)
	buf = append(buf, b4[:]...)
	buf = append(buf, []byte(s.SubNbr)...)
	return buf
}

// UnmarshalSubscriber decodes a subscriber row.
func UnmarshalSubscriber(buf []byte) (Subscriber, error) {
	var s Subscriber
	if len(buf) < 46 {
		return s, fmt.Errorf("tatp: short subscriber record (%d bytes)", len(buf))
	}
	s.SID = binary.BigEndian.Uint64(buf[0:8])
	off := 8
	for i := range s.BitFields {
		s.BitFields[i] = buf[off+i] == 1
	}
	off += 10
	copy(s.HexFields[:], buf[off:off+10])
	off += 10
	copy(s.ByteFields[:], buf[off:off+10])
	off += 10
	s.MSCLocation = binary.BigEndian.Uint32(buf[off:])
	s.VLRLocation = binary.BigEndian.Uint32(buf[off+4:])
	s.SubNbr = string(buf[off+8:])
	return s, nil
}

// AccessInfo is the ACCESS_INFO row.
type AccessInfo struct {
	SID    uint64
	AIType uint8 // 1..4
	Data1  uint8
	Data2  uint8
	Data3  [3]byte
	Data4  [5]byte
}

// Marshal encodes the access-info row.
func (a *AccessInfo) Marshal() []byte {
	buf := make([]byte, 19)
	binary.BigEndian.PutUint64(buf[0:], a.SID)
	buf[8] = a.AIType
	buf[9] = a.Data1
	buf[10] = a.Data2
	copy(buf[11:14], a.Data3[:])
	copy(buf[14:19], a.Data4[:])
	return buf
}

// SpecialFacility is the SPECIAL_FACILITY row.
type SpecialFacility struct {
	SID        uint64
	SFType     uint8 // 1..4
	IsActive   bool
	ErrorCntrl uint8
	DataA      uint8
	DataB      [5]byte
}

// Marshal encodes the special-facility row.
func (s *SpecialFacility) Marshal() []byte {
	buf := make([]byte, 17)
	binary.BigEndian.PutUint64(buf[0:], s.SID)
	buf[8] = s.SFType
	if s.IsActive {
		buf[9] = 1
	}
	buf[10] = s.ErrorCntrl
	buf[11] = s.DataA
	copy(buf[12:17], s.DataB[:])
	return buf
}

// CallForwarding is the CALL_FORWARDING row.
type CallForwarding struct {
	SID       uint64
	SFType    uint8
	StartTime uint8 // 0, 8, 16
	EndTime   uint8
	NumberX   [15]byte
}

// Marshal encodes the call-forwarding row.
func (c *CallForwarding) Marshal() []byte {
	buf := make([]byte, 26)
	binary.BigEndian.PutUint64(buf[0:], c.SID)
	buf[8] = c.SFType
	buf[9] = c.StartTime
	buf[10] = c.EndTime
	copy(buf[11:26], c.NumberX[:])
	return buf
}

// SubscriberKey returns the primary key of a subscriber.
func SubscriberKey(sid uint64) []byte { return keyenc.Uint64Key(sid) }

// AccessInfoKey returns the primary key of an access-info row.
func AccessInfoKey(sid uint64, aiType uint8) []byte {
	return keyenc.NewEncoder(9).Uint64(sid).Uint8(aiType).Bytes()
}

// SpecialFacilityKey returns the primary key of a special-facility row.
func SpecialFacilityKey(sid uint64, sfType uint8) []byte {
	return keyenc.NewEncoder(9).Uint64(sid).Uint8(sfType).Bytes()
}

// CallForwardingKey returns the primary key of a call-forwarding row.
func CallForwardingKey(sid uint64, sfType, startTime uint8) []byte {
	return keyenc.NewEncoder(10).Uint64(sid).Uint8(sfType).Uint8(startTime).Bytes()
}

// SubNbrKey returns the secondary-index key for a sub_nbr.
func SubNbrKey(subNbr string) []byte {
	e := keyenc.NewEncoder(len(subNbr) + 1)
	e.String(subNbr)
	return append([]byte(nil), e.Bytes()...)
}

// Boundaries returns the partition boundaries for the subscriber id space
// split into n partitions.
func (w *Workload) Boundaries() [][]byte {
	return UniformBoundaries(uint64(w.cfg.Subscribers), w.cfg.Partitions)
}

// UniformBoundaries splits [1, max] into n equal key ranges, returning the
// n-1 internal boundaries (see keyenc.UniformBoundaries).
func UniformBoundaries(max uint64, n int) [][]byte { return keyenc.UniformBoundaries(max, n) }

// Setup creates the TATP tables on the engine and loads them.
func (w *Workload) Setup(e *engine.Engine) error {
	if err := w.SetupSchema(e); err != nil {
		return err
	}
	return w.Load(e)
}

// SetupSchema creates the TATP tables without loading any data.  Recovery
// targets use it: restart recovery rebuilds the contents from the log and a
// checkpoint, but the schema (like the partitioning metadata of Section 3.1)
// is re-created from the definition.
func (w *Workload) SetupSchema(e *engine.Engine) error {
	bounds := w.Boundaries()
	tables := []catalog.TableDef{
		{
			Name:       TableSubscriber,
			Boundaries: bounds,
			Secondaries: []catalog.SecondaryDef{
				{Name: IndexSubNbr, PartitionAligned: false},
			},
		},
		{Name: TableAccessInfo, Boundaries: bounds},
		{Name: TableSpecialFacility, Boundaries: bounds},
		{Name: TableCallForwarding, Boundaries: bounds},
	}
	for _, def := range tables {
		if _, err := e.CreateTable(def); err != nil {
			return err
		}
	}
	return nil
}

// Load populates the tables with Subscribers rows and their children.
func (w *Workload) Load(e *engine.Engine) error {
	rng := rand.New(rand.NewSource(1))
	l := e.NewLoader()
	for sid := uint64(1); sid <= uint64(w.cfg.Subscribers); sid++ {
		sub := Subscriber{
			SID:         sid,
			SubNbr:      SubNbrOf(sid),
			MSCLocation: rng.Uint32(),
			VLRLocation: rng.Uint32(),
		}
		for i := range sub.BitFields {
			sub.BitFields[i] = rng.Intn(2) == 1
		}
		for i := range sub.HexFields {
			sub.HexFields[i] = uint8(rng.Intn(16))
			sub.ByteFields[i] = uint8(rng.Intn(256))
		}
		if err := l.Insert(TableSubscriber, SubscriberKey(sid), sub.Marshal()); err != nil {
			return fmt.Errorf("load subscriber %d: %w", sid, err)
		}
		if err := l.InsertSecondary(TableSubscriber, IndexSubNbr, SubNbrKey(sub.SubNbr), SubscriberKey(sid)); err != nil {
			return fmt.Errorf("load sub_nbr index %d: %w", sid, err)
		}

		// 1..4 access-info rows.
		nAI := 1 + rng.Intn(4)
		for t := 1; t <= nAI; t++ {
			ai := AccessInfo{SID: sid, AIType: uint8(t), Data1: uint8(rng.Intn(256)), Data2: uint8(rng.Intn(256))}
			if err := l.Insert(TableAccessInfo, AccessInfoKey(sid, uint8(t)), ai.Marshal()); err != nil {
				return err
			}
		}
		// 1..4 special-facility rows, each with 0..3 call-forwarding rows.
		nSF := 1 + rng.Intn(4)
		for t := 1; t <= nSF; t++ {
			sf := SpecialFacility{SID: sid, SFType: uint8(t), IsActive: rng.Intn(100) < 85, DataA: uint8(rng.Intn(256))}
			if err := l.Insert(TableSpecialFacility, SpecialFacilityKey(sid, uint8(t)), sf.Marshal()); err != nil {
				return err
			}
			nCF := rng.Intn(4)
			for c := 0; c < nCF; c++ {
				cf := CallForwarding{SID: sid, SFType: uint8(t), StartTime: uint8(8 * c), EndTime: uint8(8*c + 8)}
				if err := l.Insert(TableCallForwarding, CallForwardingKey(sid, uint8(t), cf.StartTime), cf.Marshal()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// randomSID picks a subscriber id, honouring the configured skew.
func (w *Workload) randomSID(rng *rand.Rand) uint64 {
	n := uint64(w.cfg.Subscribers)
	s := w.skew.Load()
	if s.probability > 0 && s.fraction > 0 && rng.Float64() < s.probability {
		hot := uint64(float64(n) * s.fraction)
		if hot == 0 {
			hot = 1
		}
		return 1 + uint64(rng.Int63n(int64(hot)))
	}
	return 1 + uint64(rng.Int63n(int64(n)))
}

// SetSkew reconfigures the access skew (used by the Figure 8 experiment to
// switch from uniform to skewed requests mid-run).  Safe to call while
// worker goroutines are drawing keys.
func (w *Workload) SetSkew(hotFraction, hotProbability float64) {
	w.skew.Store(&skew{fraction: hotFraction, probability: hotProbability})
}

// NextRequest generates the next transaction request.
func (w *Workload) NextRequest(rng *rand.Rand) *engine.Request {
	switch w.cfg.Mix {
	case MixGetSubscriberData:
		return w.GetSubscriberData(w.randomSID(rng))
	case MixInsertDeleteCallFwd:
		if rng.Intn(2) == 0 {
			return w.InsertCallForwarding(rng, w.randomSID(rng))
		}
		return w.DeleteCallForwarding(rng, w.randomSID(rng))
	case MixBalanceProbe:
		return w.BalanceProbe(w.randomSID(rng))
	case MixUpdateLocation:
		return w.UpdateLocation(rng, w.randomSID(rng))
	default:
		return w.standardMix(rng)
	}
}

// standardMix draws from the standard TATP transaction mix.
func (w *Workload) standardMix(rng *rand.Rand) *engine.Request {
	p := rng.Intn(100)
	sid := w.randomSID(rng)
	switch {
	case p < 35:
		return w.GetSubscriberData(sid)
	case p < 45:
		return w.GetNewDestination(rng, sid)
	case p < 80:
		return w.GetAccessData(rng, sid)
	case p < 82:
		return w.UpdateSubscriberData(rng, sid)
	case p < 96:
		return w.UpdateLocation(rng, sid)
	case p < 98:
		return w.InsertCallForwarding(rng, sid)
	default:
		return w.DeleteCallForwarding(rng, sid)
	}
}

// GetSubscriberData reads one subscriber row (read-only, the Figure 5
// transaction).
func (w *Workload) GetSubscriberData(sid uint64) *engine.Request {
	key := SubscriberKey(sid)
	return engine.NewRequest(engine.Action{
		Table: TableSubscriber,
		Key:   key,
		Exec: func(c *engine.Ctx) error {
			rec, err := c.Read(TableSubscriber, key)
			if err != nil {
				return err
			}
			_, err = UnmarshalSubscriber(rec)
			return err
		},
	})
}

// BalanceProbe reads a subscriber's location fields (the microbenchmark
// probe of the Figure 8 repartitioning experiment).
func (w *Workload) BalanceProbe(sid uint64) *engine.Request {
	key := SubscriberKey(sid)
	return engine.NewRequest(engine.Action{
		Table: TableSubscriber,
		Key:   key,
		Exec: func(c *engine.Ctx) error {
			_, err := c.Read(TableSubscriber, key)
			return err
		},
	})
}

// GetNewDestination reads a special-facility row and scans its
// call-forwarding rows.
func (w *Workload) GetNewDestination(rng *rand.Rand, sid uint64) *engine.Request {
	sfType := uint8(1 + rng.Intn(4))
	sfKey := SpecialFacilityKey(sid, sfType)
	lo := CallForwardingKey(sid, sfType, 0)
	hi := CallForwardingKey(sid, sfType, 24)
	return engine.NewRequest(engine.Action{
		Table: TableSpecialFacility,
		Key:   SubscriberKey(sid),
		Exec: func(c *engine.Ctx) error {
			if _, err := c.Read(TableSpecialFacility, sfKey); err != nil {
				if isNotFound(err) {
					return nil // valid TATP outcome: facility absent
				}
				return err
			}
			return c.ReadRange(TableCallForwarding, lo, hi, func(_, _ []byte) bool { return true })
		},
	})
}

// GetAccessData reads one access-info row.
func (w *Workload) GetAccessData(rng *rand.Rand, sid uint64) *engine.Request {
	aiType := uint8(1 + rng.Intn(4))
	key := AccessInfoKey(sid, aiType)
	return engine.NewRequest(engine.Action{
		Table: TableAccessInfo,
		Key:   SubscriberKey(sid),
		Exec: func(c *engine.Ctx) error {
			_, err := c.Read(TableAccessInfo, key)
			if isNotFound(err) {
				return nil
			}
			return err
		},
	})
}

// UpdateSubscriberData updates a subscriber bit field and a
// special-facility data field.
func (w *Workload) UpdateSubscriberData(rng *rand.Rand, sid uint64) *engine.Request {
	subKey := SubscriberKey(sid)
	sfType := uint8(1 + rng.Intn(4))
	sfKey := SpecialFacilityKey(sid, sfType)
	bit := rng.Intn(2) == 1
	dataA := uint8(rng.Intn(256))
	return engine.NewRequest(engine.Action{
		Table: TableSubscriber,
		Key:   subKey,
		Exec: func(c *engine.Ctx) error {
			rec, err := c.Read(TableSubscriber, subKey)
			if err != nil {
				return err
			}
			sub, err := UnmarshalSubscriber(rec)
			if err != nil {
				return err
			}
			sub.BitFields[0] = bit
			return c.Update(TableSubscriber, subKey, sub.Marshal())
		},
	}, engine.Action{
		Table: TableSpecialFacility,
		Key:   subKey,
		Exec: func(c *engine.Ctx) error {
			rec, err := c.Read(TableSpecialFacility, sfKey)
			if err != nil {
				if isNotFound(err) {
					return nil
				}
				return err
			}
			rec = append([]byte(nil), rec...)
			rec[11] = dataA
			return c.Update(TableSpecialFacility, sfKey, rec)
		},
	})
}

// VLRLocationOffset is where the 4-byte big-endian VLR location sits in
// the fixed subscriber row layout: sid (8) + bit fields (10) + hex fields
// (10) + byte fields (10) + MSC location (4).
const VLRLocationOffset = 42

// GetSubscriberDataPlan is GetSubscriberData as a declarative plan: a
// single closure-free Get, shippable over the wire with a cacheable shape.
func (w *Workload) GetSubscriberDataPlan(sid uint64) *plan.Plan {
	return plan.New().Get(TableSubscriber, SubscriberKey(sid)).MustBuild()
}

// UpdateLocationPlan is UpdateLocation as a declarative plan: phase 1
// resolves the sub_nbr through the secondary index, phase 2 overwrites the
// 4-byte VLR location field in place — no closures and no whole-row
// shipping.
func (w *Workload) UpdateLocationPlan(sid uint64, newLoc uint32) *plan.Plan {
	var loc [4]byte
	binary.BigEndian.PutUint32(loc[:], newLoc)
	b := plan.New()
	b.LookupSecondary(TableSubscriber, IndexSubNbr, SubNbrKey(SubNbrOf(sid)))
	b.Then().SetField(TableSubscriber, SubscriberKey(sid), VLRLocationOffset, loc[:])
	return b.MustBuild()
}

// NextPlan generates the mix's next transaction as a declarative plan.
// Only the single-table mixes have plan equivalents so far; the others
// return nil and the caller falls back to NextRequest.
func (w *Workload) NextPlan(rng *rand.Rand) *plan.Plan {
	switch w.cfg.Mix {
	case MixGetSubscriberData:
		return w.GetSubscriberDataPlan(w.randomSID(rng))
	case MixBalanceProbe:
		return w.GetSubscriberDataPlan(w.randomSID(rng))
	case MixUpdateLocation:
		sid := w.randomSID(rng)
		return w.UpdateLocationPlan(sid, rng.Uint32())
	default:
		return nil
	}
}

// UpdateLocation looks a subscriber up by sub_nbr through the secondary
// index and updates its VLR location.  UpdateLocationPlan is the
// closure-free equivalent.
func (w *Workload) UpdateLocation(rng *rand.Rand, sid uint64) *engine.Request {
	subNbr := SubNbrOf(sid)
	newLoc := rng.Uint32()
	subKey := SubscriberKey(sid)
	req := &engine.Request{}
	// Phase 1: resolve the sub_nbr through the (non-partition-aligned)
	// secondary index; phase 2: the owning partition applies the update.
	req.AddPhase(engine.Action{
		Table: TableSubscriber,
		Key:   subKey,
		Exec: func(c *engine.Ctx) error {
			_, err := c.LookupSecondary(TableSubscriber, IndexSubNbr, SubNbrKey(subNbr))
			return err
		},
	})
	req.AddPhase(engine.Action{
		Table: TableSubscriber,
		Key:   subKey,
		Exec: func(c *engine.Ctx) error {
			rec, err := c.Read(TableSubscriber, subKey)
			if err != nil {
				return err
			}
			sub, err := UnmarshalSubscriber(rec)
			if err != nil {
				return err
			}
			sub.VLRLocation = newLoc
			return c.Update(TableSubscriber, subKey, sub.Marshal())
		},
	})
	return req
}

// InsertCallForwarding inserts a call-forwarding row (half of the Figure 6
// insert/delete-heavy stream).
func (w *Workload) InsertCallForwarding(rng *rand.Rand, sid uint64) *engine.Request {
	sfType := uint8(1 + rng.Intn(4))
	startTime := uint8(8 * rng.Intn(3))
	cf := CallForwarding{SID: sid, SFType: sfType, StartTime: startTime, EndTime: startTime + 8}
	key := CallForwardingKey(sid, sfType, startTime)
	return engine.NewRequest(engine.Action{
		Table: TableCallForwarding,
		Key:   SubscriberKey(sid),
		Exec: func(c *engine.Ctx) error {
			err := c.Insert(TableCallForwarding, key, cf.Marshal())
			if isDuplicate(err) {
				return nil // valid TATP outcome: row already exists
			}
			return err
		},
	})
}

// DeleteCallForwarding deletes a call-forwarding row.
func (w *Workload) DeleteCallForwarding(rng *rand.Rand, sid uint64) *engine.Request {
	sfType := uint8(1 + rng.Intn(4))
	startTime := uint8(8 * rng.Intn(3))
	key := CallForwardingKey(sid, sfType, startTime)
	return engine.NewRequest(engine.Action{
		Table: TableCallForwarding,
		Key:   SubscriberKey(sid),
		Exec: func(c *engine.Ctx) error {
			err := c.Delete(TableCallForwarding, key)
			if isNotFound(err) {
				return nil // valid TATP outcome: row absent
			}
			return err
		},
	})
}

// Verify checks database-level invariants after a run: every subscriber is
// still present and resolvable through the secondary index.
func (w *Workload) Verify(e *engine.Engine) error {
	l := e.NewLoader()
	step := w.cfg.Subscribers / 100
	if step == 0 {
		step = 1
	}
	for sid := 1; sid <= w.cfg.Subscribers; sid += step {
		key := SubscriberKey(uint64(sid))
		rec, err := l.Read(TableSubscriber, key)
		if err != nil {
			return fmt.Errorf("tatp verify: subscriber %d missing: %w", sid, err)
		}
		sub, err := UnmarshalSubscriber(rec)
		if err != nil {
			return err
		}
		if sub.SID != uint64(sid) {
			return fmt.Errorf("tatp verify: subscriber %d has SID %d", sid, sub.SID)
		}
	}
	return nil
}

// isNotFound reports whether err wraps engine.ErrNotFound.
func isNotFound(err error) bool { return err != nil && errors.Is(err, engine.ErrNotFound) }

// isDuplicate reports whether err wraps engine.ErrDuplicate.
func isDuplicate(err error) bool { return err != nil && errors.Is(err, engine.ErrDuplicate) }
