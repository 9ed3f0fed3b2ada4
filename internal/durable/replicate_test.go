package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"turboflux/internal/stream"
)

// TestTapObservesAppends checks that the tap sees every append with the
// exact frame bytes journaled, for both single-record and batched writes.
func TestTapObservesAppends(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //tf:unchecked-ok test teardown

	type obs struct {
		first, last uint64
		frames      []byte
	}
	var got []obs
	s.SetTap(func(first, last uint64, frames []byte) {
		got = append(got, obs{first, last, bytes.Clone(frames)})
	})

	ups := testUpdates(10)
	if _, _, err := s.AppendBatch(ups[:1]); err != nil {
		t.Fatal(err)
	}
	ups[0].Apply(s.Graph())
	if _, _, err := s.AppendBatch(ups[1:]); err != nil {
		t.Fatal(err)
	}
	for _, u := range ups[1:] {
		u.Apply(s.Graph())
	}

	if len(got) != 2 {
		t.Fatalf("tap fired %d times, want 2", len(got))
	}
	if got[0].first != 1 || got[0].last != 1 {
		t.Fatalf("single append observed as [%d,%d], want [1,1]", got[0].first, got[0].last)
	}
	if got[1].first != 2 || got[1].last != 10 {
		t.Fatalf("batch append observed as [%d,%d], want [2,10]", got[1].first, got[1].last)
	}

	// The observed frames must decode back to the original updates.
	var decoded []stream.Update
	for _, o := range got {
		b := o.frames
		for len(b) > 0 {
			u, n, err := DecodeFrame(b)
			if err != nil {
				t.Fatalf("decoding tapped frame: %v", err)
			}
			decoded = append(decoded, u)
			b = b[n:]
		}
	}
	if !reflect.DeepEqual(decoded, ups) {
		t.Fatalf("tapped frames decode to %v, want %v", decoded, ups)
	}

	// And they must be the same bytes AppendFrame produces.
	var want []byte
	for _, u := range ups[1:] {
		if want, err = AppendFrame(want, u); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got[1].frames, want) {
		t.Fatal("tapped batch frames differ from AppendFrame encoding")
	}
}

// TestCatchupPlanFreshFollower checks the snapshot + tail manifest for a
// follower starting from nothing.
func TestCatchupPlanFreshFollower(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNone, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //tf:unchecked-ok test teardown

	ups := testUpdates(40)
	appendAll(t, s, ups[:20])
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, ups[20:])

	p, err := s.CatchupPlan(0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	if p.CutLSN != 40 {
		t.Fatalf("CutLSN = %d, want 40", p.CutLSN)
	}
	if p.SnapLSN != 20 || p.SnapPath == "" {
		t.Fatalf("plan snapshot = %q@%d, want snapshot covering 20", p.SnapPath, p.SnapLSN)
	}

	// Replaying snapshot + planned segment tail must reproduce the state.
	data, err := os.ReadFile(p.SnapPath)
	if err != nil {
		t.Fatal(err)
	}
	lsn, g, _, _, err := decodeSnapshot(data, "plan")
	if err != nil {
		t.Fatal(err)
	}
	applied := lsn
	for _, seg := range p.Segments {
		err := ReadSegmentFrames(seg.Path, seg.First, applied, func(l uint64, frame []byte) error {
			u, _, err := DecodeFrame(frame)
			if err != nil {
				return err
			}
			if l != applied+1 {
				t.Fatalf("segment frames out of order: got LSN %d after %d", l, applied)
			}
			applied = l
			u.Apply(g)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if applied != p.CutLSN {
		t.Fatalf("tail replay reached LSN %d, want cut %d", applied, p.CutLSN)
	}
	sameGraph(t, g, graphFromPrefix(ups, 40))
}

// TestCatchupPlanTail checks the log-tail-only manifest for a follower
// that is only a little behind.
func TestCatchupPlanTail(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncNone, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //tf:unchecked-ok test teardown

	ups := testUpdates(30)
	appendAll(t, s, ups)

	p, err := s.CatchupPlan(12)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	if p.SnapPath != "" || p.SnapLSN != 0 {
		t.Fatalf("tail plan unexpectedly references snapshot %q@%d", p.SnapPath, p.SnapLSN)
	}
	applied := uint64(12)
	for _, seg := range p.Segments {
		err := ReadSegmentFrames(seg.Path, seg.First, applied, func(l uint64, frame []byte) error {
			if l != applied+1 {
				t.Fatalf("got LSN %d after %d", l, applied)
			}
			applied = l
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if applied != 30 {
		t.Fatalf("tail covers through %d, want 30", applied)
	}

	// A follower already at the cut gets an empty plan.
	p2, err := s.CatchupPlan(30)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Release()
	if len(p2.Segments) != 0 || p2.SnapPath != "" {
		t.Fatalf("caught-up plan not empty: %+v", p2)
	}

	// A follower claiming to be ahead of the leader is an error.
	if _, err := s.CatchupPlan(31); err == nil {
		t.Fatal("CatchupPlan(ahead) succeeded, want error")
	}
}

// TestCompactHonorsPins is the compact-during-catch-up regression test:
// segments and snapshots referenced by an active plan survive Compact,
// and are reclaimed by the next Compact after release.
func TestCompactHonorsPins(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNone, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //tf:unchecked-ok test teardown

	ups := testUpdates(60)
	appendAll(t, s, ups[:30])

	// Cut a plan for a follower at LSN 5, then compact twice (two new
	// snapshots) while the plan is live.
	p, err := s.CatchupPlan(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, ups[30:])
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	// Every planned segment file must still exist and still stream the
	// same record range.
	applied := uint64(5)
	for _, seg := range p.Segments {
		if _, err := os.Stat(seg.Path); err != nil {
			t.Fatalf("planned segment removed by Compact: %v", err)
		}
		err := ReadSegmentFrames(seg.Path, seg.First, applied, func(l uint64, frame []byte) error {
			applied = l
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if applied != p.CutLSN {
		t.Fatalf("pinned tail covers through %d, want %d", applied, p.CutLSN)
	}

	// Release and compact again: the old segments are now reclaimable.
	p.Release()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	firsts, err := segmentList(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, first := range firsts {
		if first <= p.CutLSN && first != s.w.firstLSN {
			// Old sealed segments fully covered by the newest snapshot
			// should be gone once nothing pins them.
			lastOfSeg := uint64(0)
			for _, f2 := range firsts {
				if f2 > first && (lastOfSeg == 0 || f2 < lastOfSeg) {
					lastOfSeg = f2
				}
			}
			if lastOfSeg != 0 && lastOfSeg-1 <= s.snapLSN {
				t.Fatalf("segment %d still present after release+compact", first)
			}
		}
	}
}

// TestCompactPinsSnapshot checks that the snapshot referenced by a fresh
// follower's plan survives subsequent compactions.
func TestCompactPinsSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNone, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //tf:unchecked-ok test teardown

	ups := testUpdates(80)
	appendAll(t, s, ups[:20])
	if err := s.Compact(); err != nil { // snapshot @20
		t.Fatal(err)
	}
	p, err := s.CatchupPlan(0) // plan references snapshot @20
	if err != nil {
		t.Fatal(err)
	}
	if p.SnapLSN != 20 {
		t.Fatalf("plan snapshot @%d, want 20", p.SnapLSN)
	}
	// Two more compactions would normally retire snapshot @20 (retention
	// is 2 newest).
	appendAll(t, s, ups[20:50])
	if err := s.Compact(); err != nil { // @50
		t.Fatal(err)
	}
	appendAll(t, s, ups[50:])
	if err := s.Compact(); err != nil { // @80
		t.Fatal(err)
	}
	if _, err := os.Stat(p.SnapPath); err != nil {
		t.Fatalf("pinned snapshot removed by Compact: %v", err)
	}
	p.Release()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p.SnapPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("released snapshot still present after Compact: err=%v", err)
	}
}

// TestCatchupPlanBehindCompaction checks the unrecoverable case: the
// follower's position predates the oldest retained segment.
func TestCatchupPlanBehindCompaction(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncNone, SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //tf:unchecked-ok test teardown

	ups := testUpdates(60)
	appendAll(t, s, ups[:40])
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil { // second pass drops pre-snapshot segments
		t.Fatal(err)
	}
	appendAll(t, s, ups[40:])

	if _, err := s.CatchupPlan(3); !errors.Is(err, ErrBehindCompaction) {
		t.Fatalf("CatchupPlan(compacted position) = %v, want ErrBehindCompaction", err)
	}
	// A fresh follower is still fine: it takes the snapshot route.
	p, err := s.CatchupPlan(0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	if p.SnapLSN == 0 {
		t.Fatal("fresh-follower plan has no snapshot after compaction")
	}
}

// TestSeedFromSnapshot checks that a fresh store seeded from another
// store's snapshot bytes holds identical state, persists it, and resumes
// the log at the right LSN.
func TestSeedFromSnapshot(t *testing.T) {
	leaderDir := t.TempDir()
	leader, err := Open(leaderDir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close() //tf:unchecked-ok test teardown
	ups := testUpdates(25)
	appendAll(t, leader, ups)
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(leaderDir, snapName(leader.SnapLSN())))
	if err != nil {
		t.Fatal(err)
	}

	followerDir := t.TempDir()
	f, err := Open(followerDir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SeedFromSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if f.LSN() != 25 || f.SnapLSN() != 25 {
		t.Fatalf("seeded store at lsn=%d snap=%d, want 25/25", f.LSN(), f.SnapLSN())
	}
	sameGraph(t, f.Graph(), graphFromPrefix(ups, 25))

	// Seeding twice (or after any append) must fail.
	if err := f.SeedFromSnapshot(snap); err == nil {
		t.Fatal("second SeedFromSnapshot succeeded, want error")
	}

	// Appends continue at 26 and survive reopen.
	more := testUpdates(30)[25:]
	appendAll(t, f, more)
	if f.LSN() != 30 {
		t.Fatalf("post-seed LSN = %d, want 30", f.LSN())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := Open(followerDir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close() //tf:unchecked-ok test teardown
	if f2.LSN() != 30 || f2.Recovery().SnapshotLSN != 25 {
		t.Fatalf("reopened seeded store at lsn=%d snap=%d, want 30/25", f2.LSN(), f2.Recovery().SnapshotLSN)
	}
	sameGraph(t, f2.Graph(), graphFromPrefix(testUpdates(30), 30))
}

// TestReadSegmentFramesCorrupt checks that a damaged sealed segment is
// reported, not silently shipped.
func TestReadSegmentFramesCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, testUpdates(10))
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = ReadSegmentFrames(path, 1, 0, func(uint64, []byte) error { return nil })
	if err == nil {
		t.Fatal("ReadSegmentFrames on corrupt segment succeeded, want error")
	}
}
