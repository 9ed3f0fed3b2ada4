package durable

// Replication support: the leader-side store exports exactly what WAL
// shipping needs — the CRC frame codec (so followers can verify and decode
// shipped records), an append tap (so the server can forward freshly
// journaled frames to follower feeds), a catch-up plan (snapshot + sealed
// log tail, pinned against Compact while a follower reads it), and a
// snapshot seed (so a fresh follower can adopt the leader's state without
// replaying its whole history). See DESIGN.md §14.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"turboflux/internal/stream"
)

// Tap observes successful appends: it receives the LSN range just
// journaled and the exact CRC-framed bytes written to the log. The store
// calls it synchronously on the appending goroutine (the engine-owner
// actor in the server), after the write succeeds and before AppendBatch
// returns; frames is reused by the next append, so the tap must copy
// anything it keeps.
type Tap func(first, last uint64, frames []byte)

// SetTap installs (or, with nil, removes) the append tap.
func (s *Store) SetTap(t Tap) { s.tap = t }

// AppendFrame appends the CRC-framed encoding of u to dst — the exact
// bytes AppendBatch would journal for it, usable to synthesize replication traffic.
func AppendFrame(dst []byte, u stream.Update) ([]byte, error) {
	return appendRecord(dst, u)
}

// DecodeFrame decodes one CRC-framed record from the front of b,
// returning the update and the bytes consumed. Torn or corrupt input
// yields an error, never a partial update — the follower's mid-stream
// corruption detection rides on this.
func DecodeFrame(b []byte) (stream.Update, int, error) {
	return decodeRecord(b)
}

// SnapLSN returns the covered LSN of the newest snapshot on disk (0 when
// none has been written).
func (s *Store) SnapLSN() uint64 { return s.snapLSN }

// Rotate seals the active segment so every journaled record lives in an
// immutable file; the next append opens a fresh segment. No-op on an
// empty active segment.
func (s *Store) Rotate() error {
	if s.w == nil {
		return errClosed
	}
	return s.w.rotate()
}

// PlanSegment is one sealed log segment a catch-up stream reads.
type PlanSegment struct {
	// First is the LSN of the segment's first record.
	First uint64
	// Path is the segment file path.
	Path string
}

// Plan is a catch-up manifest: everything a replication stream must send
// so a follower at LSN After catches up to CutLSN. While the plan is
// held, Compact keeps the referenced snapshot and every segment holding
// records > After; call Release once the catch-up phase is done (or
// abandoned). Frames appended after CutLSN reach the follower through
// the live tap, never through the plan.
type Plan struct {
	// After is the follower's applied LSN; the plan covers (After, CutLSN].
	After uint64
	// CutLSN is the store's LSN when the plan was cut.
	CutLSN uint64
	// SnapPath/SnapLSN name the snapshot to seed from; empty/0 when the
	// log tail alone covers the gap.
	SnapPath string
	SnapLSN  uint64
	// Segments are the sealed segments holding records in (After, CutLSN]
	// (their leading records may predate After; readers skip by LSN).
	Segments []PlanSegment

	pin *Pin
}

// Release drops the plan's compaction pin. Idempotent; may be called
// from the goroutine that owns the store only (like every Store method).
func (p *Plan) Release() {
	if p.pin != nil {
		p.pin.Release()
		p.pin = nil
	}
}

// Pin marks on-disk state as in use by a reader so Compact will not
// remove it: every segment containing records > after stays, as does the
// snapshot covering snapLSN (when non-zero).
type Pin struct {
	s     *Store
	after uint64
	snap  uint64
}

// Release removes the pin. Idempotent.
func (p *Pin) Release() {
	if p.s != nil {
		delete(p.s.pins, p)
		p.s = nil
	}
}

// pin registers a new pin with the store.
func (s *Store) pin(after, snap uint64) *Pin {
	p := &Pin{s: s, after: after, snap: snap}
	s.pins[p] = struct{}{}
	return p
}

// pinnedFloor returns the smallest pinned after-LSN (segments holding
// records beyond it must stay) and the set of pinned snapshot LSNs.
func (s *Store) pinnedFloor() (after uint64, snaps map[uint64]bool, any bool) {
	after = ^uint64(0)
	for p := range s.pins { //tf:unordered-ok min + set union are order-independent
		any = true
		if p.after < after {
			after = p.after
		}
		if p.snap != 0 {
			if snaps == nil {
				snaps = make(map[uint64]bool, len(s.pins))
			}
			snaps[p.snap] = true
		}
	}
	return after, snaps, any
}

// ErrBehindCompaction reports that a follower's log position has been
// compacted away and the follower holds state, so neither a log tail nor
// a snapshot re-seed can bring it forward; it must be re-seeded from
// scratch (wipe its data directory).
var ErrBehindCompaction = errors.New("durable: follower position predates the oldest retained segment; re-seed from scratch")

// CatchupPlan cuts a catch-up manifest for a follower whose applied LSN
// is after. It seals the active segment (so every record <= CutLSN lives
// in an immutable file a concurrent reader may stream without racing the
// appender) and pins the referenced files against Compact until the plan
// is released.
//
// A fresh follower (after == 0) is seeded from the newest snapshot when
// one exists, then tailed from the segments past it. A non-fresh
// follower gets the log tail from after+1 — or ErrBehindCompaction when
// compaction has already dropped those records.
func (s *Store) CatchupPlan(after uint64) (*Plan, error) {
	if s.w == nil {
		return nil, errClosed
	}
	if after > s.lsn {
		return nil, fmt.Errorf("durable: follower LSN %d is ahead of the leader's %d (diverged histories)", after, s.lsn)
	}
	if err := s.w.rotate(); err != nil {
		return nil, err
	}
	p := &Plan{After: after, CutLSN: s.lsn}

	tailFrom := after + 1
	if after == 0 && s.snapLSN > 0 {
		p.SnapPath = filepath.Join(s.dir, snapName(s.snapLSN))
		p.SnapLSN = s.snapLSN
		tailFrom = s.snapLSN + 1
	}

	firsts, err := segmentList(s.dir)
	if err != nil {
		return nil, err
	}
	for i, first := range firsts {
		if first == s.w.firstLSN {
			break // the active segment is streamed live through the tap
		}
		end := s.lsn // last record of this sealed segment
		if i+1 < len(firsts) {
			end = firsts[i+1] - 1
		}
		if end < tailFrom {
			continue
		}
		p.Segments = append(p.Segments, PlanSegment{First: first, Path: filepath.Join(s.dir, segName(first))})
	}
	// The tail must start inside the first planned segment (or be empty
	// because the follower is already at the cut).
	if tailFrom <= p.CutLSN {
		if len(p.Segments) == 0 || p.Segments[0].First > tailFrom {
			return nil, ErrBehindCompaction
		}
	}
	p.pin = s.pin(tailFrom-1, p.SnapLSN)
	return p, nil
}

// ReadSegmentFrames walks one sealed segment file whose first record has
// LSN firstLSN, calling emit with each record's LSN and raw CRC-framed
// bytes for every record with LSN > after. The frame slice aliases the
// file buffer and is only valid during the call. Torn or corrupt content
// is an error: sealed segments were validated by recovery, so damage here
// means concurrent truncation or disk fault, and the catch-up stream must
// fail rather than ship garbage.
func ReadSegmentFrames(path string, firstLSN, after uint64, emit func(lsn uint64, frame []byte) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lsn := firstLSN - 1
	off := 0
	for off < len(data) {
		_, n, err := decodeRecord(data[off:])
		if err != nil {
			return fmt.Errorf("durable: segment %s record %d: %w", filepath.Base(path), lsn+1, err)
		}
		lsn++
		if lsn > after {
			if err := emit(lsn, data[off:off+n]); err != nil {
				return err
			}
		}
		off += n
	}
	return nil
}

// SeedFromSnapshot adopts a serialized snapshot (the raw bytes of a
// snapshot file, e.g. shipped by a replication leader) as this store's
// entire state. Only a fresh store (nothing journaled, no snapshot) may
// be seeded: the snapshot replaces the graph and label dictionaries, is
// persisted locally so restarts recover from it, and the log restarts at
// its covered LSN + 1 — exactly the state a follower that had replayed
// records 1..coveredLSN would hold.
//
// The caller owns re-pointing anything built over the previous (empty)
// graph and dictionaries.
func (s *Store) SeedFromSnapshot(data []byte) error {
	if s.w == nil {
		return errClosed
	}
	if s.lsn != 0 || s.snapLSN != 0 {
		return fmt.Errorf("durable: cannot seed a non-fresh store (lsn=%d snapshot=%d)", s.lsn, s.snapLSN)
	}
	lsn, g, vdict, edict, err := decodeSnapshot(data, "seed")
	if err != nil {
		return err
	}
	// Persist first: write the snapshot under its own name, then move the
	// (empty) log past it. A crash in between recovers either fresh state
	// or the seeded snapshot — never a half-seeded store.
	tmp := filepath.Join(s.dir, snapName(lsn)+tmpSuffix)
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName(lsn))); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	if err := s.w.Close(); err != nil {
		return err
	}
	if err := removeAllSegments(s.dir); err != nil {
		return err
	}
	if err := s.w.openSegment(lsn+1, true); err != nil {
		return err
	}
	s.w.nextLSN = lsn + 1
	s.g = g
	s.vdict = vdict
	s.edict = edict
	s.lsn = lsn
	s.snapLSN = lsn
	return nil
}
