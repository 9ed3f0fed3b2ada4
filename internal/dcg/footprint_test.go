package dcg

import (
	"cmp"
	"slices"
	"testing"
	"unsafe"

	"turboflux/internal/query"
	"turboflux/internal/workload"
)

// footprintBytes returns the bytes d retains for its stored edges: the
// capacities of the node table, the slot -> vertex and free arrays, the
// label bitmaps, and every slot's in-edge and explicit-children arrays.
// slotOf is left out — it is sized by the data vertex IDs, not by the
// DCG.
func footprintBytes(d *DCG) int {
	b := cap(d.nodes)*int(unsafe.Sizeof(node{})) +
		cap(d.vids)*int(unsafe.Sizeof(d.vids[0])) +
		cap(d.free)*int(unsafe.Sizeof(d.free[0])) +
		(cap(d.inBits)+cap(d.outBits))*8
	for i := range d.nodes {
		n := &d.nodes[i]
		b += cap(n.in)*int(unsafe.Sizeof(inEdge{})) + cap(n.out)*int(unsafe.Sizeof(Child{}))
	}
	return b
}

// TestFootprintPerEdge bounds the memory the DCG retains per stored edge
// (DESIGN.md §16). It builds the DCGs of 6-vertex cyclic queries over a
// seeded LSBench graph by replaying the oracle's edge states through
// MakeTransition. The layout that gave every slot one list header per
// query vertex and direction retained 121.5 B/edge on this input (8
// queries, 18,202 edges, 5,191 slots); the bound is half of that.
func TestFootprintPerEdge(t *testing.T) {
	const maxBytesPerEdge = 60
	ds := workload.LSBench(workload.LSBenchConfig{Users: 300, Seed: 1})
	bytes, edges := 0, 0
	for _, q := range ds.CyclicQueries(8, 6, 1) {
		tr, err := query.TransformToTree(q, query.ChooseStartQVertex(q, ds.Graph), ds.Graph)
		if err != nil {
			t.Fatal(err)
		}
		spec := ComputeSpec(ds.Graph, tr)
		keys := make([]EdgeKey, 0, len(spec))
		for k := range spec {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b EdgeKey) int {
			return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.QV, b.QV), cmp.Compare(a.To, b.To))
		})
		d := New(tr)
		for _, k := range keys {
			d.MakeTransition(k.From, k.QV, k.To, spec[k])
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		bytes += footprintBytes(d)
		edges += d.NumEdges()
	}
	if edges == 0 {
		t.Fatal("no DCG edges stored")
	}
	perEdge := float64(bytes) / float64(edges)
	t.Logf("%d edges, %d bytes, %.1f B/edge", edges, bytes, perEdge)
	if perEdge > maxBytesPerEdge {
		t.Fatalf("DCG retains %.1f B per stored edge, want <= %d", perEdge, maxBytesPerEdge)
	}
}
