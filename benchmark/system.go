package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"plp/internal/engine"
	"plp/internal/repl"
	"plp/internal/server"
	"plp/internal/wal"
)

// system is one workload's served engine: a durable primary behind a
// loopback server and, once attachFollower has run, an in-process follower
// behind a second server in follower mode.
type system struct {
	dir string

	prim     *engine.Engine
	primSrv  *server.Server
	primAddr string
	hub      *repl.Primary

	fol      *engine.Engine
	folSrv   *server.Server
	folAddr  string
	follower *repl.Follower

	serving sync.WaitGroup
}

// openEngine opens a durable PLP-Leaf engine on dir and creates the schema.
// Commits wait for the group-commit fsync (no LazyCommit).
func openEngine(dir string, b bench) (*engine.Engine, error) {
	e, err := engine.Open(engine.Options{Design: engine.PLPLeaf, Partitions: partitions, DataDir: dir})
	if err != nil {
		return nil, err
	}
	if err := b.schema(e); err != nil {
		_ = e.Close()
		return nil, err
	}
	return e, nil
}

func (s *system) serve(e *engine.Engine) (*server.Server, string, error) {
	srv := server.New(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = srv.Serve()
	}()
	return srv, addr, nil
}

// setup opens, loads and checkpoints the primary and serves it.
func setup(b bench, dir string, tr *tracer) (*system, error) {
	s := &system{dir: dir}
	var err error
	if s.prim, err = openEngine(filepath.Join(dir, "primary"), b); err != nil {
		return nil, err
	}
	if err := b.load(s.prim); err != nil {
		s.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	start := time.Now()
	if _, err := s.prim.Checkpoint(); err != nil {
		s.close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	tr.record(0, tr.newID(), "engine.checkpoint", start, time.Now())
	if s.primSrv, s.primAddr, err = s.serve(s.prim); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// attachFollower makes the primary a replication primary, starts an
// in-process follower on its own data directory behind a server in
// follower mode, waits until it has caught up, and then makes the
// primary's commits wait for the follower's ack (k=1) through ackWait.
func (s *system) attachFollower(b bench, ackWait func(wal.LSN) error) error {
	s.hub = repl.NewPrimary(s.prim.DurableLog(), 1)
	s.primSrv.SetReplPrimary(s.hub)
	folDir := filepath.Join(s.dir, "follower")
	var err error
	if s.fol, err = openEngine(folDir, b); err != nil {
		return err
	}
	if _, err := s.fol.Recover(); err != nil {
		return fmt.Errorf("follower recover: %w", err)
	}
	if s.folSrv, s.folAddr, err = s.serve(s.fol); err != nil {
		return err
	}
	s.folSrv.SetFollowerMode(true)
	s.follower, err = repl.NewFollower(repl.FollowerOptions{
		Primary:       s.primAddr,
		Dir:           folDir,
		Log:           s.fol.DurableLog(),
		Apply:         s.fol.ApplyReplicated,
		Reseed:        s.fol.ResetForSeed,
		RetryInterval: 25 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	s.folSrv.SetSeedingFunc(s.follower.Seeding)
	s.follower.Start()
	if err := s.waitCaughtUp(2 * time.Minute); err != nil {
		return err
	}
	s.prim.SetCommitAckWaiter(ackWait)
	return nil
}

// waitCaughtUp waits until the follower has made durable and applied
// everything the primary has made durable.
func (s *system) waitCaughtUp(limit time.Duration) error {
	if s.follower == nil {
		return nil
	}
	deadline := time.Now().Add(limit)
	for {
		target := uint64(s.prim.DurableLog().DurableLSN())
		st := s.follower.Status()
		if st.DurableLSN >= target && st.Applier.AppliedLSN >= target {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower not caught up after %v: durable %d applied %d, primary %d (last error %q)",
				limit, st.DurableLSN, st.Applier.AppliedLSN, target, st.LastError)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close stops everything setup started and waits for the servers' accept
// loops to return.
func (s *system) close() {
	if s.follower != nil {
		s.follower.Stop()
	}
	if s.folSrv != nil {
		_ = s.folSrv.Close()
	}
	if s.fol != nil {
		_ = s.fol.Close()
	}
	if s.primSrv != nil {
		_ = s.primSrv.Close()
	}
	if s.prim != nil {
		_ = s.prim.Close()
	}
	s.serving.Wait()
}

// engines lists the system's engines, primary first.
func (s *system) engines() []*engine.Engine {
	if s.fol != nil {
		return []*engine.Engine{s.prim, s.fol}
	}
	return []*engine.Engine{s.prim}
}

// recoverCopy opens a copy of a primary data directory, recreates the
// schema and replays the log, and returns the recovered engine with the
// time the three steps took.
func recoverCopy(b bench, src, dst string, tr *tracer) (*engine.Engine, engine.RecoverInfo, time.Duration, error) {
	var info engine.RecoverInfo
	if err := os.RemoveAll(dst); err != nil {
		return nil, info, 0, err
	}
	if err := copyTree(src, dst); err != nil {
		return nil, info, 0, err
	}
	start := time.Now()
	e, err := openEngine(dst, b)
	if err != nil {
		return nil, info, 0, err
	}
	rs := time.Now()
	info, err = e.Recover()
	end := time.Now()
	if err != nil {
		_ = e.Close()
		return nil, info, 0, fmt.Errorf("recover: %w", err)
	}
	tr.record(0, tr.newID(), "engine.recover", rs, end)
	return e, info, end.Sub(start), nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !fi.Mode().IsRegular() {
			return errors.New("copy: not a regular file: " + path)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close()
		return err
	}
	// Sync now, so the kernel does not write the copy back later, in the
	// middle of a measured phase.
	if err := out.Sync(); err != nil {
		_ = out.Close()
		return err
	}
	return out.Close()
}
