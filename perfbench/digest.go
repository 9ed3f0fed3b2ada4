package main

import (
	"fmt"

	"turboflux/internal/graph"
)

// qtally is one query's event count and order-insensitive digest: the
// sum of a hash of every (seq, sign, mapping) it reported.
type qtally struct {
	Pos, Neg int64
	Digest   uint64
}

func (t *qtally) add(seq uint64, positive bool, mapping []graph.VertexID) {
	if positive {
		t.Pos++
	} else {
		t.Neg++
	}
	t.Digest += eventHash(seq, positive, mapping)
}

func mix(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	return h ^ (h >> 29)
}

func eventHash(seq uint64, positive bool, mapping []graph.VertexID) uint64 {
	h := mix(0x243f6a8885a308d3, seq)
	if positive {
		h = mix(h, 1)
	} else {
		h = mix(h, 2)
	}
	for _, v := range mapping {
		h = mix(h, uint64(v))
	}
	return h
}

// outcome is what one side (the server run or an in-process pass)
// observed: the match total of every frame, in order, and the tallies
// of the watched queries.
type outcome struct {
	name        string
	frameTotals []int64
	tallies     map[string]*qtally
	final       map[string][2]int64 // per registered query at the end: pos, neg since registration
}

func newOutcome(name string, watched []string) *outcome {
	o := &outcome{name: name, tallies: make(map[string]*qtally)}
	for _, w := range watched {
		o.tallies[w] = &qtally{}
	}
	return o
}

// compareOutcomes reports every disagreement between a and b.
func compareOutcomes(a, b *outcome) []string {
	var bad []string
	if len(a.frameTotals) != len(b.frameTotals) {
		bad = append(bad, fmt.Sprintf("%s has %d frames, %s has %d", a.name, len(a.frameTotals), b.name, len(b.frameTotals)))
	} else {
		for i := range a.frameTotals {
			if a.frameTotals[i] != b.frameTotals[i] {
				bad = append(bad, fmt.Sprintf("frame %d: %s total %d, %s total %d", i, a.name, a.frameTotals[i], b.name, b.frameTotals[i]))
				break
			}
		}
	}
	for _, q := range sortedNames(a.tallies) {
		ta, tb := a.tallies[q], b.tallies[q]
		if tb == nil || *ta != *tb {
			bad = append(bad, fmt.Sprintf("query %s: %s %+v, %s %+v", q, a.name, ta, b.name, tb))
		}
	}
	if a.final != nil && b.final != nil {
		for _, q := range sortedNames(a.final) {
			if fb, ok := b.final[q]; !ok || fb != a.final[q] {
				bad = append(bad, fmt.Sprintf("query %s final counts: %s %v, %s %v", q, a.name, a.final[q], b.name, fb))
			}
		}
		if len(a.final) != len(b.final) {
			bad = append(bad, fmt.Sprintf("%s reports %d queries, %s %d", a.name, len(a.final), b.name, len(b.final)))
		}
	}
	return bad
}
