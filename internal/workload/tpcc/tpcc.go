// Package tpcc implements a reduced-schema TPC-C workload (warehouse,
// district, customer, item, stock, orders and order-line tables with the
// NewOrder and Payment transactions).
//
// The paper only uses TPC-C for the page-latch breakdown of Figure 2 — its
// baseline systems "did not encounter any of the issues we try to address in
// TPC-C" — so this implementation aims for the right mix of index and heap
// page accesses rather than full TPC-C compliance (no think times, no
// delivery/stock-level/order-status transactions).
package tpcc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
)

// Table names.
const (
	TableWarehouse = "tpcc_warehouse"
	TableDistrict  = "tpcc_district"
	TableCustomer  = "tpcc_customer"
	TableItem      = "tpcc_item"
	TableStock     = "tpcc_stock"
	TableOrders    = "tpcc_orders"
	TableOrderLine = "tpcc_order_line"
)

// Scale constants (reduced from the TPC-C defaults to keep in-memory runs
// small; the page-access mix is preserved).
const (
	DistrictsPerWarehouse = 10
	CustomersPerDistrict  = 300
	Items                 = 1000
	StockPerWarehouse     = Items
)

// Config configures the workload.
type Config struct {
	// Warehouses is the scale factor.
	Warehouses int
	// Partitions must match the engine's partition count.
	Partitions int
}

// Workload is a configured TPC-C workload.
type Workload struct {
	cfg Config
}

// New returns a TPC-C workload.
func New(cfg Config) *Workload {
	if cfg.Warehouses <= 0 {
		cfg.Warehouses = 1
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	return &Workload{cfg: cfg}
}

// Name implements the harness workload interface.
func (w *Workload) Name() string { return "tpcc" }

// balanceRecord is the generic fixed-size row used for all reduced TPC-C
// tables: id fields plus a balance/quantity and a textual filler.
type balanceRecord struct {
	A, B, C uint64
	Amount  int64
	Filler  [120]byte
}

func marshalRec(r balanceRecord) []byte {
	buf := make([]byte, 32+len(r.Filler))
	binary.BigEndian.PutUint64(buf[0:], r.A)
	binary.BigEndian.PutUint64(buf[8:], r.B)
	binary.BigEndian.PutUint64(buf[16:], r.C)
	binary.BigEndian.PutUint64(buf[24:], uint64(r.Amount))
	copy(buf[32:], r.Filler[:])
	return buf
}

func unmarshalRec(buf []byte) (balanceRecord, error) {
	var r balanceRecord
	if len(buf) < 32 {
		return r, fmt.Errorf("tpcc: short record")
	}
	r.A = binary.BigEndian.Uint64(buf[0:])
	r.B = binary.BigEndian.Uint64(buf[8:])
	r.C = binary.BigEndian.Uint64(buf[16:])
	r.Amount = int64(binary.BigEndian.Uint64(buf[24:]))
	copy(r.Filler[:], buf[32:])
	return r, nil
}

// Keys.  All warehouse-rooted tables are partitioned by warehouse id, which
// is the leading key component.
func warehouseKey(w uint64) []byte          { return keyenc.Uint64Key(w) }
func districtKey(w, d uint64) []byte        { return keyenc.CompositeUint64(w, d) }
func customerKey(w, d, c uint64) []byte     { return keyenc.CompositeUint64(w, d, c) }
func itemKey(i uint64) []byte               { return keyenc.Uint64Key(i) }
func stockKey(w, i uint64) []byte           { return keyenc.CompositeUint64(w, i) }
func orderKey(w, d, o uint64) []byte        { return keyenc.CompositeUint64(w, d, o) }
func orderLineKey(w, d, o, l uint64) []byte { return keyenc.CompositeUint64(w, d, o, l) }

// Setup creates and loads the tables.
func (w *Workload) Setup(e *engine.Engine) error {
	nWH := uint64(w.cfg.Warehouses)
	whBounds := warehouseBoundaries(nWH, w.cfg.Partitions)
	defs := []catalog.TableDef{
		{Name: TableWarehouse, Boundaries: whBounds},
		{Name: TableDistrict, Boundaries: whBounds},
		{Name: TableCustomer, Boundaries: whBounds},
		{Name: TableItem, Boundaries: keyenc.UniformBoundaries(Items, w.cfg.Partitions)},
		{Name: TableStock, Boundaries: whBounds},
		{Name: TableOrders, Boundaries: whBounds},
		{Name: TableOrderLine, Boundaries: whBounds},
	}
	for _, def := range defs {
		if _, err := e.CreateTable(def); err != nil {
			return err
		}
	}
	return w.Load(e)
}

// warehouseBoundaries splits the warehouse id space; because all
// warehouse-rooted keys lead with the warehouse id, the same boundaries
// partition every warehouse-rooted table consistently.
func warehouseBoundaries(warehouses uint64, parts int) [][]byte {
	return keyenc.UniformBoundaries(warehouses, parts)
}

// Load populates the tables.
func (w *Workload) Load(e *engine.Engine) error {
	l := e.NewLoader()
	for i := uint64(1); i <= Items; i++ {
		if err := l.Insert(TableItem, itemKey(i), marshalRec(balanceRecord{A: i, Amount: int64(i % 100)})); err != nil {
			return err
		}
	}
	for wh := uint64(1); wh <= uint64(w.cfg.Warehouses); wh++ {
		if err := l.Insert(TableWarehouse, warehouseKey(wh), marshalRec(balanceRecord{A: wh})); err != nil {
			return err
		}
		for d := uint64(1); d <= DistrictsPerWarehouse; d++ {
			// District.Amount doubles as the next-order-id counter.
			if err := l.Insert(TableDistrict, districtKey(wh, d), marshalRec(balanceRecord{A: wh, B: d, Amount: 1})); err != nil {
				return err
			}
			for c := uint64(1); c <= CustomersPerDistrict; c++ {
				if err := l.Insert(TableCustomer, customerKey(wh, d, c), marshalRec(balanceRecord{A: wh, B: d, C: c})); err != nil {
					return err
				}
			}
		}
		for i := uint64(1); i <= StockPerWarehouse; i++ {
			if err := l.Insert(TableStock, stockKey(wh, i), marshalRec(balanceRecord{A: wh, B: i, Amount: 100})); err != nil {
				return err
			}
		}
	}
	return nil
}

// NextRequest draws from the NewOrder/Payment mix (roughly the TPC-C ratio
// between the two).
func (w *Workload) NextRequest(rng *rand.Rand) *engine.Request {
	if rng.Intn(100) < 52 {
		return w.NewOrder(rng)
	}
	return w.Payment(rng)
}

// NewOrder reads the district's next order id, inserts an order and 5-15
// order lines, and updates the stock rows of the ordered items.
func (w *Workload) NewOrder(rng *rand.Rand) *engine.Request {
	wh := 1 + uint64(rng.Intn(w.cfg.Warehouses))
	d := 1 + uint64(rng.Intn(DistrictsPerWarehouse))
	c := 1 + uint64(rng.Intn(CustomersPerDistrict))
	nLines := 5 + rng.Intn(11)
	items := make([]uint64, nLines)
	qtys := make([]int64, nLines)
	for i := range items {
		items[i] = 1 + uint64(rng.Intn(Items))
		qtys[i] = int64(1 + rng.Intn(10))
	}
	orderID := uint64(rng.Int63())>>16 | 1

	req := &engine.Request{}
	// Phase 1: read customer, bump the district order counter, insert the
	// order row.
	req.AddPhase(engine.Action{
		Table: TableDistrict,
		Key:   districtKey(wh, d),
		Exec: func(ctx *engine.Ctx) error {
			if _, err := ctx.Read(TableCustomer, customerKey(wh, d, c)); err != nil {
				return err
			}
			rec, err := ctx.ReadForUpdate(TableDistrict, districtKey(wh, d))
			if err != nil {
				return err
			}
			dist, err := unmarshalRec(rec)
			if err != nil {
				return err
			}
			dist.Amount++
			if err := ctx.Update(TableDistrict, districtKey(wh, d), marshalRec(dist)); err != nil {
				return err
			}
			return ctx.Insert(TableOrders, orderKey(wh, d, orderID),
				marshalRec(balanceRecord{A: wh, B: d, C: c, Amount: int64(nLines)}))
		},
	})
	// Phase 2: insert order lines and update stock.
	lineActions := make([]engine.Action, 0, nLines)
	for i := 0; i < nLines; i++ {
		line := uint64(i + 1)
		item := items[i]
		qty := qtys[i]
		lineActions = append(lineActions, engine.Action{
			Table: TableOrderLine,
			Key:   orderLineKey(wh, d, orderID, line),
			Exec: func(ctx *engine.Ctx) error {
				if _, err := ctx.Read(TableItem, itemKey(item)); err != nil {
					return err
				}
				stockRec, err := ctx.ReadForUpdate(TableStock, stockKey(wh, item))
				if err != nil {
					return err
				}
				stock, err := unmarshalRec(stockRec)
				if err != nil {
					return err
				}
				stock.Amount -= qty
				if stock.Amount < 10 {
					stock.Amount += 91
				}
				if err := ctx.Update(TableStock, stockKey(wh, item), marshalRec(stock)); err != nil {
					return err
				}
				err = ctx.Insert(TableOrderLine, orderLineKey(wh, d, orderID, line),
					marshalRec(balanceRecord{A: wh, B: d, C: orderID, Amount: qty}))
				if errors.Is(err, engine.ErrDuplicate) {
					return nil
				}
				return err
			},
		})
	}
	req.AddPhase(lineActions...)
	return req
}

// Payment updates the warehouse, district and customer balances.
func (w *Workload) Payment(rng *rand.Rand) *engine.Request {
	wh := 1 + uint64(rng.Intn(w.cfg.Warehouses))
	d := 1 + uint64(rng.Intn(DistrictsPerWarehouse))
	c := 1 + uint64(rng.Intn(CustomersPerDistrict))
	amount := int64(1 + rng.Intn(5000))
	bump := func(table string, key []byte) func(*engine.Ctx) error {
		return func(ctx *engine.Ctx) error {
			rec, err := ctx.ReadForUpdate(table, key)
			if err != nil {
				return err
			}
			r, err := unmarshalRec(rec)
			if err != nil {
				return err
			}
			r.Amount += amount
			return ctx.Update(table, key, marshalRec(r))
		}
	}
	return engine.NewRequest(
		engine.Action{Table: TableWarehouse, Key: warehouseKey(wh), Exec: bump(TableWarehouse, warehouseKey(wh))},
		engine.Action{Table: TableDistrict, Key: districtKey(wh, d), Exec: bump(TableDistrict, districtKey(wh, d))},
		engine.Action{Table: TableCustomer, Key: customerKey(wh, d, c), Exec: bump(TableCustomer, customerKey(wh, d, c))},
	)
}

// Verify checks that warehouse and district loading survived the run and
// that districts' order counters only grew.
func (w *Workload) Verify(e *engine.Engine) error {
	l := e.NewLoader()
	for wh := uint64(1); wh <= uint64(w.cfg.Warehouses); wh++ {
		if _, err := l.Read(TableWarehouse, warehouseKey(wh)); err != nil {
			return fmt.Errorf("tpcc verify: warehouse %d missing: %w", wh, err)
		}
		for d := uint64(1); d <= DistrictsPerWarehouse; d++ {
			rec, err := l.Read(TableDistrict, districtKey(wh, d))
			if err != nil {
				return fmt.Errorf("tpcc verify: district %d/%d missing: %w", wh, d, err)
			}
			dist, err := unmarshalRec(rec)
			if err != nil {
				return err
			}
			if dist.Amount < 1 {
				return fmt.Errorf("tpcc verify: district %d/%d counter went backwards: %d", wh, d, dist.Amount)
			}
		}
	}
	return nil
}
