//go:build !race

package durable

import (
	"testing"
)

// TestStoreAppendBatchOneAllocs guards the journal hot path: appending a
// batch of one — how every single update is journaled — reuses the
// store's frame buffer and allocates nothing per record. Fsync none and
// a segment far larger than the run keep sync and rotation out of the
// measurement.
func TestStoreAppendBatchOneAllocs(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncNone, SegmentSize: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //tf:unchecked-ok test cleanup

	// Insertions, deletions and vertex declarations.
	ups := testUpdates(10)
	i := 0
	appendOne := func() {
		if _, _, err := s.AppendBatch(ups[i : i+1]); err != nil {
			t.Fatal(err)
		}
		i = (i + 1) % len(ups)
	}
	for range ups {
		appendOne() // warm: grow the frame buffer to the largest record
	}
	if avg := testing.AllocsPerRun(500, appendOne); avg != 0 {
		t.Fatalf("AppendBatch of one allocates %v per record, want 0", avg)
	}
}
