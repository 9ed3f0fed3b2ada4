package turboflux

import (
	"testing"
)

// socialQuery builds the two-Person knows query used across these tests.
// Labels: 0:Person; edges: 2:knows (matching the multiFixture convention).
func socialQuery() *Query {
	q := NewQuery(2)
	q.SetLabels(0, 0)
	q.SetLabels(1, 0)
	_ = q.AddEdge(0, 2, 1)
	return q
}

func TestDurableMultiFreshAndReopen(t *testing.T) {
	dir := t.TempDir()
	boot := []Update{
		DeclareVertex(1, 0),
		DeclareVertex(2, 0),
		DeclareVertex(3, 0),
	}
	// Filler edges spanning more than one bootstrap chunk, on a label the
	// query never mentions between unlabeled vertices it cannot match.
	const filler = bootstrapChunk + 100
	for i := VertexID(0); i < filler; i++ {
		boot = append(boot, Insert(100+i, 5, 101+i))
	}
	d, err := OpenDurableMulti(dir, DurableMultiOptions{Fsync: "always", Bootstrap: boot})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Recovery().Fresh {
		t.Fatalf("recovery = %+v, want fresh", d.Recovery())
	}
	if d.LSN() != uint64(len(boot)) || d.Graph().NumEdges() != filler {
		t.Fatalf("after bootstrap: LSN %d edges %d, want %d and %d",
			d.LSN(), d.Graph().NumEdges(), len(boot), filler)
	}
	if err := d.Register("social", socialQuery(), Options{}); err != nil {
		t.Fatal(err)
	}
	counts, err := d.Insert(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if counts["social"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if _, err := d.Insert(2, 2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	lsn := d.LSN()
	if lsn != uint64(len(boot))+3 {
		t.Fatalf("LSN %d after bootstrap and three updates, want %d", lsn, len(boot)+3)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the graph comes back from the journal; registrations do not —
	// the replacement query's initial matching covers the recovered state.
	d2, err := OpenDurableMulti(dir, DurableMultiOptions{Fsync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close() //tf:unchecked-ok test cleanup
	rec := d2.Recovery()
	if rec.Fresh {
		t.Fatal("second open must not be fresh")
	}
	if rec.TruncatedBytes != 0 {
		t.Fatalf("clean close left %d torn bytes", rec.TruncatedBytes)
	}
	if got := d2.Graph().NumEdges(); got != 1+filler {
		t.Fatalf("recovered edges = %d, want %d", got, 1+filler)
	}
	if d2.LSN() != lsn {
		t.Fatalf("recovered LSN %d, want %d", d2.LSN(), lsn)
	}
	if got := d2.Queries(); len(got) != 0 {
		t.Fatalf("registrations must not survive reopen, got %v", got)
	}
	if err := d2.Register("social", socialQuery(), Options{}); err != nil {
		t.Fatal(err)
	}
	init := d2.InitialMatches()
	if init["social"] != 1 {
		t.Fatalf("initial after recovery = %v, want the surviving knows edge", init)
	}
	// Matching resumes where the log ends.
	counts, err = d2.Insert(3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if counts["social"] != 1 {
		t.Fatalf("counts after recovery = %v", counts)
	}
	if d2.LSN() <= lsn {
		t.Fatalf("LSN %d did not advance past %d", d2.LSN(), lsn)
	}
	if st := d2.Stats(); st["social"].PositiveMatches != 1 {
		t.Fatalf("stats = %+v", st["social"])
	}
}

func TestDurableMultiCompact(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurableMulti(dir, DurableMultiOptions{Fsync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []Update{DeclareVertex(1, 0), DeclareVertex(2, 0)} {
		if _, err := d.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Insert(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurableMulti(dir, DurableMultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close() //tf:unchecked-ok test cleanup
	if d2.Recovery().Replayed != 0 {
		t.Fatalf("post-compact reopen replayed %d updates, want snapshot only", d2.Recovery().Replayed)
	}
	if got := d2.Graph().NumEdges(); got != 1 {
		t.Fatalf("recovered edges = %d", got)
	}
	if d2.VertexLabels() == nil || d2.EdgeLabels() == nil {
		t.Fatal("store dictionaries missing")
	}
}

func TestDurableMultiBadFsync(t *testing.T) {
	if _, err := OpenDurableMulti(t.TempDir(), DurableMultiOptions{Fsync: "sometimes"}); err == nil {
		t.Fatal("bad fsync policy must fail")
	}
}
