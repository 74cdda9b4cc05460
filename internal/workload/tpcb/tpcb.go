// Package tpcb implements the TPC-B benchmark used by the paper's
// false-sharing experiment (Figure 7): the account records are small and
// deliberately not padded, so in the conventional, logically-partitioned and
// PLP-Regular designs unrelated hot records share heap pages and their
// updates contend on heap-page latches, while PLP-Leaf splits them across
// partition-private pages automatically.
package tpcb

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"plp/internal/catalog"
	"plp/internal/engine"
	"plp/internal/keyenc"
	"plp/plan"
)

// Table names.
const (
	TableBranch  = "tpcb_branch"
	TableTeller  = "tpcb_teller"
	TableAccount = "tpcb_account"
	TableHistory = "tpcb_history"
)

// Scale constants (tellers/accounts per branch as in TPC-B).
const (
	TellersPerBranch  = 10
	AccountsPerBranch = 10000
)

// Config configures the workload.
type Config struct {
	// Branches is the scale factor.
	Branches int
	// AccountsPerBranch overrides the standard 100k accounts per branch
	// (the default used here is 10k to keep in-memory runs small; the
	// relative behaviour of the designs does not depend on it).
	AccountsPerBranch int
	// Partitions must match the engine's partition count.
	Partitions int
}

// Workload is a configured TPC-B workload.
type Workload struct {
	cfg     Config
	history uint64
}

// New returns a TPC-B workload.
func New(cfg Config) *Workload {
	if cfg.Branches <= 0 {
		cfg.Branches = 1
	}
	if cfg.AccountsPerBranch <= 0 {
		cfg.AccountsPerBranch = AccountsPerBranch
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	return &Workload{cfg: cfg}
}

// Name implements the harness workload interface.
func (w *Workload) Name() string { return "tpcb" }

// Config returns the workload configuration.
func (w *Workload) Config() Config { return w.cfg }

// Account, Teller and Branch rows share a compact fixed layout:
// id (8) | balance (8) | filler — with no padding to a full page, which is
// precisely what triggers heap-page false sharing.
type row struct {
	ID      uint64
	Balance int64
	Filler  [84]byte
}

func marshalRow(r row) []byte {
	buf := make([]byte, 100)
	binary.BigEndian.PutUint64(buf[0:], r.ID)
	binary.BigEndian.PutUint64(buf[8:], uint64(r.Balance))
	copy(buf[16:], r.Filler[:])
	return buf
}

func unmarshalRow(buf []byte) (row, error) {
	var r row
	if len(buf) < 16 {
		return r, fmt.Errorf("tpcb: short row (%d bytes)", len(buf))
	}
	r.ID = binary.BigEndian.Uint64(buf[0:])
	r.Balance = int64(binary.BigEndian.Uint64(buf[8:]))
	copy(r.Filler[:], buf[16:])
	return r, nil
}

// Keys.
func branchKey(id uint64) []byte  { return keyenc.Uint64Key(id) }
func tellerKey(id uint64) []byte  { return keyenc.Uint64Key(id) }
func accountKey(id uint64) []byte { return keyenc.Uint64Key(id) }
func historyKey(id uint64) []byte { return keyenc.Uint64Key(id) }

// NumAccounts returns the total number of accounts.
func (w *Workload) NumAccounts() int { return w.cfg.Branches * w.cfg.AccountsPerBranch }

// Setup creates and loads the TPC-B tables.
func (w *Workload) Setup(e *engine.Engine) error {
	nAcc := uint64(w.NumAccounts())
	nTel := uint64(w.cfg.Branches * TellersPerBranch)
	nBr := uint64(w.cfg.Branches)
	defs := []catalog.TableDef{
		{Name: TableAccount, Boundaries: keyenc.UniformBoundaries(nAcc, w.cfg.Partitions)},
		{Name: TableTeller, Boundaries: keyenc.UniformBoundaries(nTel, w.cfg.Partitions)},
		{Name: TableBranch, Boundaries: keyenc.UniformBoundaries(nBr, w.cfg.Partitions)},
		{Name: TableHistory, Boundaries: keyenc.UniformBoundaries(1<<40, w.cfg.Partitions)},
	}
	for _, def := range defs {
		if _, err := e.CreateTable(def); err != nil {
			return err
		}
	}
	return w.Load(e)
}

// Load populates branches, tellers and accounts with zero balances.
func (w *Workload) Load(e *engine.Engine) error {
	l := e.NewLoader()
	for b := uint64(1); b <= uint64(w.cfg.Branches); b++ {
		if err := l.Insert(TableBranch, branchKey(b), marshalRow(row{ID: b})); err != nil {
			return err
		}
	}
	for t := uint64(1); t <= uint64(w.cfg.Branches*TellersPerBranch); t++ {
		if err := l.Insert(TableTeller, tellerKey(t), marshalRow(row{ID: t})); err != nil {
			return err
		}
	}
	for a := uint64(1); a <= uint64(w.NumAccounts()); a++ {
		if err := l.Insert(TableAccount, accountKey(a), marshalRow(row{ID: a})); err != nil {
			return err
		}
	}
	return nil
}

// nextArgs draws one AccountUpdate's parameters.
func (w *Workload) nextArgs(rng *rand.Rand) (accountID, tellerID, branchID, histID uint64, delta int64) {
	accountID = 1 + uint64(rng.Int63n(int64(w.NumAccounts())))
	branchID = 1 + (accountID-1)/uint64(w.cfg.AccountsPerBranch)
	tellerID = (branchID-1)*TellersPerBranch + 1 + uint64(rng.Intn(TellersPerBranch))
	delta = int64(rng.Intn(1999999) - 999999)
	histID = uint64(rng.Int63())<<20 | uint64(rng.Int63n(1<<20))
	return
}

// NextRequest generates one AccountUpdate transaction.
func (w *Workload) NextRequest(rng *rand.Rand) *engine.Request {
	accountID, tellerID, branchID, histID, delta := w.nextArgs(rng)
	return w.AccountUpdate(accountID, tellerID, branchID, histID, delta)
}

// NextPlan generates one AccountUpdate as a declarative plan.
func (w *Workload) NextPlan(rng *rand.Rand) *plan.Plan {
	accountID, tellerID, branchID, histID, delta := w.nextArgs(rng)
	return w.AccountUpdatePlan(accountID, tellerID, branchID, histID, delta)
}

// AccountUpdate is the TPC-B transaction: update the balances of one
// account, its teller and its branch, and insert a history row.  The three
// updates touch different tables and partitions, so the partitioned designs
// run them as parallel actions of one transaction.
func (w *Workload) AccountUpdate(accountID, tellerID, branchID, histID uint64, delta int64) *engine.Request {
	updateBalance := func(table string, key []byte) func(*engine.Ctx) error {
		return func(c *engine.Ctx) error {
			// The branch (and teller) rows are hot: take the exclusive lock
			// up front to avoid upgrade deadlocks in the conventional design.
			rec, err := c.ReadForUpdate(table, key)
			if err != nil {
				return err
			}
			r, err := unmarshalRow(rec)
			if err != nil {
				return err
			}
			r.Balance += delta
			return c.Update(table, key, marshalRow(r))
		}
	}
	hist := row{ID: histID, Balance: delta}
	return engine.NewRequest(
		engine.Action{Table: TableAccount, Key: accountKey(accountID), Exec: updateBalance(TableAccount, accountKey(accountID))},
		engine.Action{Table: TableTeller, Key: tellerKey(tellerID), Exec: updateBalance(TableTeller, tellerKey(tellerID))},
		engine.Action{Table: TableBranch, Key: branchKey(branchID), Exec: updateBalance(TableBranch, branchKey(branchID))},
		engine.Action{Table: TableHistory, Key: historyKey(histID), Exec: func(c *engine.Ctx) error {
			return c.Insert(TableHistory, historyKey(histID), marshalRow(hist))
		}},
	)
}

// balanceOffset is where the big-endian int64 balance sits in the fixed
// row layout (after the 8-byte id).
const balanceOffset = 8

// AccountUpdatePlan is AccountUpdate as a declarative plan: three in-place
// balance increments and the history insert, with no closures — the plan
// can be shipped over the wire and its compiled shape cached server-side.
// All four ops are one phase; they touch distinct keys, so the partitioned
// designs still run them as parallel actions of one transaction.
func (w *Workload) AccountUpdatePlan(accountID, tellerID, branchID, histID uint64, delta int64) *plan.Plan {
	hist := row{ID: histID, Balance: delta}
	return plan.New().
		AddFieldInt64(TableAccount, accountKey(accountID), balanceOffset, delta).
		AddFieldInt64(TableTeller, tellerKey(tellerID), balanceOffset, delta).
		AddFieldInt64(TableBranch, branchKey(branchID), balanceOffset, delta).
		Insert(TableHistory, historyKey(histID), marshalRow(hist)).
		MustBuild()
}

// Verify checks the TPC-B consistency condition: the sum of account
// balances equals the sum of branch balances equals the sum of teller
// balances (every committed transaction applies the same delta to all
// three).
func (w *Workload) Verify(e *engine.Engine) error {
	l := e.NewLoader()
	sum := func(table string) (int64, error) {
		var total int64
		err := l.ReadRange(table, nil, nil, func(_, rec []byte) bool {
			r, err := unmarshalRow(rec)
			if err != nil {
				return false
			}
			total += r.Balance
			return true
		})
		return total, err
	}
	accounts, err := sum(TableAccount)
	if err != nil {
		return err
	}
	tellers, err := sum(TableTeller)
	if err != nil {
		return err
	}
	branches, err := sum(TableBranch)
	if err != nil {
		return err
	}
	if accounts != tellers || tellers != branches {
		return fmt.Errorf("tpcb verify: balance sums diverge: accounts=%d tellers=%d branches=%d",
			accounts, tellers, branches)
	}
	history, err := sum(TableHistory)
	if err != nil {
		return err
	}
	if history != accounts {
		return fmt.Errorf("tpcb verify: history sum %d != account sum %d", history, accounts)
	}
	return nil
}
