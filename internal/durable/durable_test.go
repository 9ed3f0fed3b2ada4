package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"turboflux/internal/graph"
	"turboflux/internal/stream"
)

// testUpdates is a deterministic little history exercising all ops.
func testUpdates(n int) []stream.Update {
	ups := make([]stream.Update, 0, n)
	for i := 0; i < n; i++ {
		v := graph.VertexID(i % 17)
		w := graph.VertexID((i*7 + 3) % 17)
		l := graph.Label(i % 5)
		switch i % 5 {
		case 0:
			ups = append(ups, stream.DeclareVertex(v, l, l+1))
		case 3:
			ups = append(ups, stream.Delete(v, l, w))
		default:
			ups = append(ups, stream.Insert(v, l, w))
		}
	}
	return ups
}

// graphFromPrefix materializes the graph after applying ups[:n].
func graphFromPrefix(ups []stream.Update, n int) *graph.Graph {
	g := graph.New()
	for _, u := range ups[:n] {
		u.Apply(g)
	}
	return g
}

// sortedEdges renders a graph's edge set deterministically for equality.
func sortedEdges(g *graph.Graph) []graph.Edge {
	es := g.Edges()
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		if es[i].Label != es[j].Label {
			return es[i].Label < es[j].Label
		}
		return es[i].To < es[j].To
	})
	return es
}

func sameGraph(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("graph shape mismatch: got %dv/%de, want %dv/%de",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	if !reflect.DeepEqual(sortedEdges(got), sortedEdges(want)) {
		t.Fatalf("edge sets differ")
	}
	want.ForEachVertex(func(v graph.VertexID) {
		if !reflect.DeepEqual(got.Labels(v), want.Labels(v)) {
			t.Fatalf("labels of vertex %d differ: got %v, want %v", v, got.Labels(v), want.Labels(v))
		}
	})
}

// appendAll journals ups and applies them to the store's graph, as the
// engine wrapper does.
func appendAll(t *testing.T, s *Store, ups []stream.Update) {
	t.Helper()
	for i, u := range ups {
		if _, _, err := s.AppendBatch(ups[i : i+1]); err != nil {
			t.Fatalf("AppendBatch(%s): %v", u, err)
		}
		u.Apply(s.Graph())
	}
}

func TestStoreOpenFresh(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //tf:unchecked-ok test cleanup
	if !s.Recovery().Fresh {
		t.Error("fresh dir should report Fresh")
	}
	if s.LSN() != 0 {
		t.Errorf("fresh LSN = %d, want 0", s.LSN())
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ups := testUpdates(100)
	s, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, ups)
	if s.LSN() != 100 {
		t.Fatalf("LSN = %d, want 100", s.LSN())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //tf:unchecked-ok test cleanup
	rec := s2.Recovery()
	if rec.Fresh || rec.Replayed != 100 || rec.SnapshotLSN != 0 {
		t.Fatalf("recovery = %+v, want 100 replayed from no snapshot", rec)
	}
	if s2.LSN() != 100 {
		t.Fatalf("recovered LSN = %d, want 100", s2.LSN())
	}
	sameGraph(t, s2.Graph(), graphFromPrefix(ups, 100))

	// Appends continue with fresh LSNs.
	lsn, _, err := s2.AppendBatch([]stream.Update{stream.Insert(1, 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 101 {
		t.Fatalf("post-recovery LSN = %d, want 101", lsn)
	}
}

func TestStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	ups := testUpdates(300)
	s, err := Open(dir, Options{SegmentSize: 256, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, ups)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	firsts, err := segmentList(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(firsts) < 3 {
		t.Fatalf("expected several segments, got %d", len(firsts))
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //tf:unchecked-ok test cleanup
	if s2.Recovery().Replayed != 300 {
		t.Fatalf("replayed %d, want 300", s2.Recovery().Replayed)
	}
	sameGraph(t, s2.Graph(), graphFromPrefix(ups, 300))
}

func TestStoreCompactAndRecover(t *testing.T) {
	dir := t.TempDir()
	ups := testUpdates(200)
	s, err := Open(dir, Options{SegmentSize: 512, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, ups[:150])
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, ups[150:])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := s2.Recovery()
	if rec.SnapshotLSN != 150 || rec.Replayed != 50 {
		t.Fatalf("recovery = %+v, want snapshot 150 + 50 replayed", rec)
	}
	sameGraph(t, s2.Graph(), graphFromPrefix(ups, 200))

	// A second compact cycle retains at most two snapshots and keeps
	// working after reopen.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	snaps, err := snapshotList(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) > 2 {
		t.Fatalf("compaction left %d snapshots, want <= 2", len(snaps))
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close() //tf:unchecked-ok test cleanup
	if s3.Recovery().SnapshotLSN != 200 || s3.Recovery().Replayed != 0 {
		t.Fatalf("recovery after compact = %+v", s3.Recovery())
	}
	sameGraph(t, s3.Graph(), graphFromPrefix(ups, 200))
}

func TestStoreSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	ups := testUpdates(120)
	s, err := Open(dir, Options{SegmentSize: 256, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, ups[:60])
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, ups[60:100])
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, ups[100:])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest snapshot: recovery must fall back to the older
	// one and replay the full tail from LSN 61 on.
	path := filepath.Join(dir, snapName(100))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //tf:unchecked-ok test cleanup
	rec := s2.Recovery()
	if rec.SnapshotLSN != 60 || rec.Replayed != 60 {
		t.Fatalf("recovery = %+v, want fallback snapshot 60 + 60 replayed", rec)
	}
	sameGraph(t, s2.Graph(), graphFromPrefix(ups, 120))
}

func TestStoreDictPersistence(t *testing.T) {
	dir := t.TempDir()
	vd, ed := graph.NewDict(), graph.NewDict()
	vd.Intern("person")
	vd.Intern("post")
	ed.Intern("follows")
	s, err := Open(dir, Options{VertexLabels: vd, EdgeLabels: ed})
	if err != nil {
		t.Fatal(err)
	}
	if s.VertexLabels() != vd || s.EdgeLabels() != ed {
		t.Fatal("fresh store must adopt the seed dictionaries")
	}
	appendAll(t, s, testUpdates(10))
	ed.Intern("likes")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //tf:unchecked-ok test cleanup
	if got := s2.VertexLabels().Len(); got != 2 {
		t.Fatalf("recovered vertex dict has %d names, want 2", got)
	}
	if l, ok := s2.EdgeLabels().Lookup("likes"); !ok || l != 1 {
		t.Fatalf("recovered edge dict lost %q (got %d,%v)", "likes", l, ok)
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{
		"always": FsyncAlways, "interval": FsyncInterval, "": FsyncInterval, "none": FsyncNone,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
		if s != "" && got.String() != s {
			t.Errorf("Policy(%q).String() = %q", s, got.String())
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("ParsePolicy should reject unknown values")
	}
}

func TestFsyncPolicies(t *testing.T) {
	ups := testUpdates(50)
	for _, pol := range []Policy{FsyncAlways, FsyncInterval, FsyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{Fsync: pol})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, s, ups)
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close() //tf:unchecked-ok test cleanup
			sameGraph(t, s2.Graph(), graphFromPrefix(ups, len(ups)))
		})
	}
}

func TestStoreClosed(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AppendBatch([]stream.Update{stream.Insert(1, 1, 2)}); err == nil {
		t.Error("AppendBatch on closed store should fail")
	}
	if err := s.Compact(); err == nil {
		t.Error("Compact on closed store should fail")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close should be a no-op, got %v", err)
	}
}
