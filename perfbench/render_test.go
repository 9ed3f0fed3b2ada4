package main

import (
	"testing"

	"turboflux/internal/graph"
	"turboflux/internal/qlang"
	"turboflux/internal/query"
)

// TestRenderRoundTrip checks that every generated pattern parses back
// into the query it was rendered from: same vertex labels, same edges in
// the same order and direction.
func TestRenderRoundTrip(t *testing.T) {
	for _, spec := range specs {
		spec.Scale = min(spec.Scale, 300)
		spec.Triples = min(spec.Triples, 6000)
		for seed := int64(1); seed <= 3; seed++ {
			in, err := generate(spec, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", spec.Name, seed, err)
			}
			for _, q := range in.queries {
				text := renderQuery(q)
				got, _, err := qlang.Parse(text, numericDict(), numericDict())
				if err != nil {
					t.Fatalf("%s: parse %q: %v", spec.Name, text, err)
				}
				if !sameQuery(q, got) {
					t.Fatalf("%s: %q parsed to %v, want %v", spec.Name, text, got, q)
				}
			}
			if len(in.patterns) != spec.Queries*spec.Copies {
				t.Fatalf("%s: %d patterns, want %d", spec.Name, len(in.patterns), spec.Queries*spec.Copies)
			}
		}
	}
}

func TestRenderLabels(t *testing.T) {
	q := query.NewGraph(3)
	q.SetLabels(0, 2, 5)
	q.SetLabels(2, 7)
	for _, e := range []graph.Edge{{From: 0, Label: 3, To: 1}, {From: 2, Label: 1, To: 1}, {From: 2, Label: 4, To: 0}} {
		if err := q.AddEdge(e.From, e.Label, e.To); err != nil {
			t.Fatal(err)
		}
	}
	want := "MATCH (v0:2|5), (v1), (v2:7), (v0)-[:3]->(v1), (v2)-[:1]->(v1), (v2)-[:4]->(v0)"
	if got := renderQuery(q); got != want {
		t.Fatalf("renderQuery = %q, want %q", got, want)
	}
	got, _, err := qlang.Parse(want, numericDict(), numericDict())
	if err != nil || !sameQuery(q, got) {
		t.Fatalf("round trip: %v, %v", got, err)
	}
}

func sameQuery(a, b *query.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for u := 0; u < a.NumVertices(); u++ {
		la, lb := a.Labels(graph.VertexID(u)), b.Labels(graph.VertexID(u))
		if len(la) != len(lb) {
			return false
		}
		for i := range la {
			if la[i] != lb[i] {
				return false
			}
		}
	}
	for i := 0; i < a.NumEdges(); i++ {
		if a.Edge(i) != b.Edge(i) {
			return false
		}
	}
	return true
}
