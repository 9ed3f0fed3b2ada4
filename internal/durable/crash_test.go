package durable

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"turboflux/internal/graph"
	"turboflux/internal/stream"
)

// copyDir clones a store directory so each injection point mutates a
// private copy, the way a crash leaves the on-disk state behind.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Fatalf("unexpected subdirectory %s in store", e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// buildStore journals ups into a fresh directory and abandons the store
// without closing it (appends hit the OS immediately; the un-synced close
// is the crash).
func buildStore(t *testing.T, ups []stream.Update, opt Options) string {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, ups)
	return dir
}

// recordOffsets scans a segment file and returns the byte offset where
// each record begins, plus the file length.
func recordOffsets(t *testing.T, path string) ([]int, int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int
	off := 0
	for off < len(data) {
		_, n, err := decodeRecord(data[off:])
		if err != nil {
			t.Fatalf("segment %s invalid at offset %d: %v", filepath.Base(path), off, err)
		}
		offs = append(offs, off)
		off += n
	}
	return offs, len(data)
}

// expectPrefix opens dir and asserts recovery succeeded with exactly the
// first n of ups applied.
func expectPrefix(t *testing.T, dir string, ups []stream.Update, n int) {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after crash injection: %v", err)
	}
	defer s.Close() //tf:unchecked-ok test cleanup
	if got := int(s.LSN()); got != n {
		t.Fatalf("recovered LSN = %d, want %d", got, n)
	}
	sameGraph(t, s.Graph(), graphFromPrefix(ups, n))
}

// TestCrashTruncationMatrix truncates the log at every byte offset of the
// final record (including offsets that cut into its frame header) and
// asserts recovery always yields the clean prefix of all earlier records.
func TestCrashTruncationMatrix(t *testing.T) {
	const n = 40
	ups := testUpdates(n)
	dir := buildStore(t, ups, Options{Fsync: FsyncNone})
	firsts, err := segmentList(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(firsts) != 1 {
		t.Fatalf("want a single segment, got %d", len(firsts))
	}
	seg := segName(firsts[0])
	offs, size := recordOffsets(t, filepath.Join(dir, seg))
	if len(offs) != n {
		t.Fatalf("segment has %d records, want %d", len(offs), n)
	}
	last := offs[n-1]

	// Untouched file: full replay.
	expectPrefix(t, copyDir(t, dir), ups, n)

	for cut := last; cut < size; cut++ {
		crash := copyDir(t, dir)
		if err := os.Truncate(filepath.Join(crash, seg), int64(cut)); err != nil {
			t.Fatal(err)
		}
		expectPrefix(t, crash, ups, n-1)

		// Recovery truncated the torn tail, so the reopened store must
		// accept new appends and recover them on the next open.
		s, err := Open(crash, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.AppendBatch(ups[n-1 : n]); err != nil {
			t.Fatal(err)
		}
		ups[n-1].Apply(s.Graph())
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		expectPrefix(t, crash, ups, n)
	}
}

// TestCrashBitFlipMatrix flips random bits across the whole log under a
// seeded PRNG and asserts recovery always yields the clean prefix of the
// records before the damaged one — never an error, never garbage state.
func TestCrashBitFlipMatrix(t *testing.T) {
	const n = 40
	ups := testUpdates(n)
	dir := buildStore(t, ups, Options{Fsync: FsyncNone})
	firsts, err := segmentList(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := segName(firsts[0])
	offs, size := recordOffsets(t, filepath.Join(dir, seg))

	// prefixAt maps a damaged byte offset to the number of intact records
	// before it.
	prefixAt := func(off int) int {
		k := 0
		for k < len(offs) && offs[k] <= off {
			k++
		}
		return k - 1
	}

	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 120; trial++ {
		var off int
		if trial < 40 {
			// First sweep the final record's bytes, per the crash matrix.
			off = offs[len(offs)-1] + rng.Intn(size-offs[len(offs)-1])
		} else {
			off = rng.Intn(size)
		}
		crash := copyDir(t, dir)
		path := filepath.Join(crash, seg)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 1 << rng.Intn(8)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectPrefix(t, crash, ups, prefixAt(off))
	}
}

// TestCrashBitFlipAcrossSegments damages a middle segment: the clean
// prefix ends there and the later segments are dropped entirely.
func TestCrashBitFlipAcrossSegments(t *testing.T) {
	const n = 120
	ups := testUpdates(n)
	dir := buildStore(t, ups, Options{Fsync: FsyncNone, SegmentSize: 256})
	firsts, err := segmentList(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(firsts) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(firsts))
	}
	mid := firsts[len(firsts)/2]
	segPath := filepath.Join(dir, segName(mid))
	offs, _ := recordOffsets(t, segPath)

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		recIdx := rng.Intn(len(offs))
		crash := copyDir(t, dir)
		path := filepath.Join(crash, segName(mid))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[offs[recIdx]+rng.Intn(frameHeaderSize)] ^= 1 << rng.Intn(8)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Records before the damaged one survive: those of earlier
		// segments plus recIdx records of the damaged segment.
		expectPrefix(t, crash, ups, int(mid)-1+recIdx)
	}
}

// TestCrashDuringCompaction: a crash between writing the .tmp snapshot
// and the rename leaves a .tmp leftover that recovery must ignore, and a
// crash after the rename but before segment cleanup leaves extra covered
// segments that recovery must tolerate.
func TestCrashDuringCompaction(t *testing.T) {
	const n = 60
	ups := testUpdates(n)
	dir := buildStore(t, ups, Options{Fsync: FsyncNone, SegmentSize: 256})

	// Half-written .tmp snapshot (as if the crash hit mid-write).
	if err := os.WriteFile(filepath.Join(dir, snapName(30)+tmpSuffix), []byte("TFSNgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	expectPrefix(t, copyDir(t, dir), ups, n)

	// Snapshot renamed into place but covered segments not yet removed:
	// replay must skip the covered records and still land on full state.
	crash := copyDir(t, dir)
	g := graphFromPrefix(ups, n)
	if err := writeSnapshot(crash, uint64(n), g, graph.NewDict(), graph.NewDict()); err != nil {
		t.Fatal(err)
	}
	s, err := Open(crash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //tf:unchecked-ok test cleanup
	if s.Recovery().SnapshotLSN != uint64(n) || s.Recovery().Replayed != 0 {
		t.Fatalf("recovery = %+v, want snapshot %d + 0 replayed", s.Recovery(), n)
	}
	sameGraph(t, s.Graph(), g)
}
