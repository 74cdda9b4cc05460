// Replay: re-applying the analyzed log to a target database.
package recovery

import (
	"errors"
	"fmt"

	"plp/internal/btree"
	"plp/internal/wal"
)

// Target is the interface replay applies recovered operations to.  It is
// satisfied by *engine.Loader (the unlocked, unlogged bulk-load path of a
// freshly created engine with the same schema as the crashed one).
type Target interface {
	// Insert adds a record under key.  When key is already present it must
	// fail with an error wrapping btree.ErrDuplicateKey and leave the
	// target unchanged.
	Insert(table string, key, rec []byte) error
	// Update overwrites the record under key.
	Update(table string, key, rec []byte) error
	// Delete removes the record under key.
	Delete(table string, key []byte) error
	// Exists reports whether key is present.
	Exists(table string, key []byte) (bool, error)
	// InsertSecondary adds a secondary-index entry.
	InsertSecondary(table, index string, secKey, primaryKey []byte) error
	// DeleteSecondary removes a secondary-index entry.
	DeleteSecondary(table, index string, secKey []byte) error
}

// ReplayStats reports what Replay did.
type ReplayStats struct {
	// SnapshotEntries is the number of entries loaded from the checkpoint.
	SnapshotEntries int
	// Applied is the number of logical operations re-applied.
	Applied int
	// SkippedLoser counts operations of aborted or in-flight transactions.
	SkippedLoser int
	// SkippedPreCheckpoint counts operations already covered by the snapshot.
	SkippedPreCheckpoint int
}

// applyOp applies a single committed operation using upsert/idempotent
// semantics so that replaying a log twice (or on top of a partially
// recovered database) converges to the same state.
func applyOp(t Target, op Op) error {
	m := op.Mod
	if m.Index != "" {
		switch op.Type {
		case wal.RecInsert, wal.RecUpdate:
			return t.InsertSecondary(m.Table, m.Index, m.Key, m.After)
		case wal.RecDelete:
			return t.DeleteSecondary(m.Table, m.Index, m.Key)
		default:
			return fmt.Errorf("recovery: unexpected secondary op type %v", op.Type)
		}
	}
	switch op.Type {
	case wal.RecInsert, wal.RecUpdate:
		exists, err := t.Exists(m.Table, m.Key)
		if err != nil {
			return err
		}
		if exists {
			return t.Update(m.Table, m.Key, m.After)
		}
		return t.Insert(m.Table, m.Key, m.After)
	case wal.RecDelete:
		exists, err := t.Exists(m.Table, m.Key)
		if err != nil {
			return err
		}
		if !exists {
			return nil
		}
		return t.Delete(m.Table, m.Key)
	default:
		return fmt.Errorf("recovery: unexpected op type %v", op.Type)
	}
}

// SnapshotLoader is optionally implemented by a Target that schedules the
// checkpoint snapshot load itself — engine.Loader splits it into lanes and
// runs them on the partition workers that own the data.  Implementations
// load every entry through LoadSpans.
type SnapshotLoader interface {
	// LoadSnapshot loads every entry of s and returns how many it loaded.
	LoadSnapshot(s *Snapshot) (int, error)
}

// Span is a run of consecutive entries of one snapshot chunk:
// Chunks[Chunk].Keys[Lo:Hi].  A chunk's entries are in key order, so
// splitting a chunk at partition boundaries yields one span per partition.
type Span struct {
	Chunk, Lo, Hi int
}

// Spans returns one span per chunk, covering the whole snapshot in log
// order.
func (s *Snapshot) Spans() []Span {
	out := make([]Span, len(s.Chunks))
	for i, c := range s.Chunks {
		out[i] = Span{Chunk: i, Hi: len(c.Keys)}
	}
	return out
}

// LoadSpans loads the entries of the given snapshot spans into t, in order,
// and returns how many it loaded.  A primary entry is inserted, and written
// with Update instead when its key is already present, so loading a
// snapshot on top of a partially recovered target converges to the same
// state; secondary entries are upserts already.  It is the one snapshot
// load loop: Replay runs it over the whole snapshot on the calling
// goroutine unless the target is a SnapshotLoader.
func LoadSpans(t Target, s *Snapshot, spans []Span) (int, error) {
	n := 0
	for _, sp := range spans {
		chunk := &s.Chunks[sp.Chunk]
		for i := sp.Lo; i < sp.Hi; i++ {
			var err error
			if chunk.Index != "" {
				err = t.InsertSecondary(chunk.Table, chunk.Index, chunk.Keys[i], chunk.Values[i])
			} else if err = t.Insert(chunk.Table, chunk.Keys[i], chunk.Values[i]); errors.Is(err, btree.ErrDuplicateKey) {
				err = t.Update(chunk.Table, chunk.Keys[i], chunk.Values[i])
			}
			if err != nil {
				return n, fmt.Errorf("recovery: loading snapshot entry %s/%x: %w", chunk.Table, chunk.Keys[i], err)
			}
			n++
		}
	}
	return n, nil
}

// loadSnapshot applies the checkpoint snapshot to the target.
func loadSnapshot(t Target, s *Snapshot) (int, error) {
	if s == nil {
		return 0, nil
	}
	if sl, ok := t.(SnapshotLoader); ok {
		return sl.LoadSnapshot(s)
	}
	return LoadSpans(t, s, s.Spans())
}

// Replay rebuilds the database contents described by the analysis onto the
// target: the most recent checkpoint snapshot first, then every operation of
// a committed transaction that is not already covered by the snapshot, in
// LSN order.  Operations of aborted and in-flight transactions are skipped
// (their effects were either rolled back before the crash or never became
// durable), which plays the role of ARIES undo for this logical scheme.
func Replay(a *Analysis, t Target) (ReplayStats, error) {
	var st ReplayStats
	if a == nil {
		return st, fmt.Errorf("recovery: nil analysis")
	}
	n, err := loadSnapshot(t, a.Snapshot)
	st.SnapshotEntries = n
	if err != nil {
		return st, err
	}
	var cutoff wal.LSN
	if a.Snapshot != nil {
		cutoff = a.Snapshot.EndLSN
	}
	for _, op := range a.Ops {
		if op.LSN <= cutoff {
			st.SkippedPreCheckpoint++
			continue
		}
		if a.Outcomes[op.Txn] != OutcomeCommitted {
			st.SkippedLoser++
			continue
		}
		if err := applyOp(t, op); err != nil {
			return st, fmt.Errorf("recovery: applying op at LSN %d: %w", op.LSN, err)
		}
		st.Applied++
	}
	return st, nil
}

// ApplyOps applies a slice of recovered operations to the target with the
// same idempotent semantics as Replay.  It is used to resolve in-doubt
// cross-shard branches after recovery: the branch's operations were held
// back by Replay (its outcome was still in-flight), and are applied here
// once the coordinator's commit decision is known.
func ApplyOps(t Target, ops []Op) error {
	for _, op := range ops {
		if err := applyOp(t, op); err != nil {
			return fmt.Errorf("recovery: applying in-doubt op at LSN %d: %w", op.LSN, err)
		}
	}
	return nil
}

// Recover is the convenience entry point: Analyze followed by Replay.
func Recover(log wal.Log, t Target) (*Analysis, ReplayStats, error) {
	a, err := Analyze(log)
	if err != nil {
		return nil, ReplayStats{}, err
	}
	st, err := Replay(a, t)
	return a, st, err
}
