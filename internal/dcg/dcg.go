// Package dcg implements the data-centric graph (DCG), TurboFlux's compact
// representation of intermediate results (Section 3 of the paper).
//
// The DCG conceptually is a complete multigraph over the data vertices in
// which every ordered pair (v, v') has one edge per non-root query vertex
// u', labeled u', whose state is NULL, IMPLICIT or EXPLICIT:
//
//   - an IMPLICIT edge (v, u', v') records that some data path v_s→v.v'
//     matches the query-tree path u_s→P(u').u', but some subtree of u' is
//     not yet matched under v' (Definition 5);
//   - an EXPLICIT edge additionally has every subtree of u' matched under
//     v' (Definition 4).
//
// NULL edges are never stored. Edges whose label is the root u_s emanate
// from the artificial source v*_s, represented here by graph.NoVertex.
//
// Data layout (DESIGN.md §16): the DCG is a dense slot-interned structure
// with no hash maps anywhere on the update/eval path, mirroring the flat
// vector + edge-index layout of the reference C++ implementations. A
// vertex interner maps each participating data vertex to a compact slot;
// released slots are recycled through a free list. Each slot owns two
// pointer-free arrays, so a vertex pays only for the labels it uses:
//
//   - its stored in-edges (label u', parent, state), sorted by (u',
//     parent) and searched by binary search — ascending parent order
//     within a label also makes every parent enumeration deterministic
//     without per-call sorting;
//   - its explicit children (label u', child), sorted by (u', child). The
//     children labeled u' are one contiguous sub-range: the candidate list
//     SubgraphSearch enumerates, maintained by binary-search insert and
//     remove. Keeping it sorted makes candidate enumeration a pure
//     function of the DCG *state*, independent of the insertion/deletion
//     history that produced it — the property the multi-query layer
//     relies on when several queries share one DCG and each must
//     reproduce, byte for byte, the transcript a private DCG (with a
//     different history) would have produced (DESIGN.md §17).
//
// Two DCG-wide label bitmaps, one bit per (slot, label), record which
// labels have a non-empty sub-range in each slot. The out bitmap is the
// paper's explicit-out bitmap: MatchAllChildren costs one bit test per
// query child, and HasInLabel one bit test.
package dcg

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"turboflux/internal/graph"
	"turboflux/internal/query"
)

// State is the state of a DCG edge.
type State uint8

const (
	// Null means the edge is not present in the DCG.
	Null State = iota
	// Implicit marks a candidate whose subtrees are not all matched yet.
	Implicit
	// Explicit marks a candidate whose subtrees are all matched.
	Explicit
)

// String returns N/I/E, the abbreviations used in the paper's figures.
func (s State) String() string {
	switch s {
	case Null:
		return "N"
	case Implicit:
		return "I"
	case Explicit:
		return "E"
	default:
		return "?"
	}
}

// EdgeBytes is the accounting cost of one stored DCG edge, used for the
// intermediate-result-size comparisons (Figures 6b, 7b, 8b, 9b): parent
// vertex ID, child vertex ID, query-vertex label and state, plus index
// overhead.
const EdgeBytes = 16

// key orders the entries of a slot's arrays: query-vertex label first,
// then data vertex, so each label's entries form one contiguous sub-range.
//
//tf:hotpath
func key(u, v graph.VertexID) uint64 { return uint64(u)<<32 | uint64(v) }

// labelEnd is the smallest key above every entry labeled u.
//
//tf:hotpath
func labelEnd(u graph.VertexID) uint64 { return key(u, 0) + 1<<32 }

// inEdge is one stored incoming DCG edge of a vertex: its query-vertex
// label, the parent data vertex (graph.NoVertex for root edges) and the
// edge state. The parent-side explicit-children entry is found by binary
// search when the edge leaves Explicit.
type inEdge struct {
	u      graph.VertexID
	parent graph.VertexID
	state  State
}

//tf:hotpath
func (e inEdge) key() uint64 { return key(e.u, e.parent) }

// Child is one explicit child entry of a vertex v: the DCG edge
// (v, QV, V) is EXPLICIT. ExplicitChildrenList returns these.
type Child struct {
	QV graph.VertexID // query-vertex label of the edge
	V  graph.VertexID // child data vertex
}

//tf:hotpath
func (c Child) key() uint64 { return key(c.QV, c.V) }

// lowerIn returns the position of the first entry of the sorted in-edge
// array l whose key is at least k: k's position when present, its
// insertion position otherwise. graph.NoVertex is the maximum VertexID,
// so a label's root edge sorts last in its sub-range.
//
// The search is branch-free: the borrow of key-k is 1 exactly when
// key < k, and each halving step adds it (masked) instead of branching on
// the comparison. Most slots hold a handful of entries, where
// mispredicted branches would cost more than the probes themselves.
//
//tf:hotpath
func lowerIn(l []inEdge, k uint64) int {
	if len(l) == 0 {
		return 0
	}
	base, n := 0, len(l)
	for n > 1 {
		half := n >> 1
		_, lt := bits.Sub64(l[base+half].key(), k, 0)
		base += half & -int(lt)
		n -= half
	}
	_, lt := bits.Sub64(l[base].key(), k, 0)
	return base + int(lt)
}

// lowerOut is lowerIn for the sorted explicit-children array l.
//
//tf:hotpath
func lowerOut(l []Child, k uint64) int {
	if len(l) == 0 {
		return 0
	}
	base, n := 0, len(l)
	for n > 1 {
		half := n >> 1
		_, lt := bits.Sub64(l[base+half].key(), k, 0)
		base += half & -int(lt)
		n -= half
	}
	_, lt := bits.Sub64(l[base].key(), k, 0)
	return base + int(lt)
}

// inShrinkMin is the smallest in-edge backing-array capacity delete
// compaction bothers with; inKeepEmpty is the largest backing array a
// fully drained array retains for alloc-free churn around zero (same
// policy as the graph's adjacency lists).
const (
	inShrinkMin = 16
	inKeepEmpty = 4
)

// node holds the per-slot DCG storage of one participating data vertex.
// The slot is released when both arrays are empty; a released slot keeps
// its backing arrays so recycling it for a new vertex allocates nothing.
type node struct {
	// in holds the stored incoming edges, sorted by (label, parent).
	in []inEdge
	// out holds this vertex's EXPLICIT children, sorted by (label, child),
	// for the forward enumeration of SubgraphSearch (candidates come
	// straight from the DCG, never by filtering data-graph adjacency). The
	// length of label u's sub-range is the explicit-out counter.
	out []Child
}

// DCG is the data-centric graph for one query tree. The zero value is not
// usable; call New.
type DCG struct {
	tree *query.Tree
	nq   int

	slotOf []int32          // data vertex -> interner slot, -1 when absent
	vids   []graph.VertexID // slot -> data vertex, NoVertex when free
	nodes  []node           // slot-indexed storage
	free   []uint32         // recycled slots (LIFO)

	// Label bitmaps, bit s*nq+u: inBits says slot s stores an in-edge
	// labeled u, outBits that it has an explicit child labeled u (the
	// paper's bitmap). They answer HasInLabel and MatchAllChildren without
	// searching the slot's arrays.
	inBits  []uint64
	outBits []uint64

	numEdges    int     // stored (implicit + explicit) edges
	numExplicit int     // stored explicit edges
	explByLabel []int64 // explicit-edge count per query-vertex label
}

// New returns an empty DCG for query tree t.
func New(t *query.Tree) *DCG {
	return &DCG{
		tree:        t,
		nq:          t.Q.NumVertices(),
		explByLabel: make([]int64, t.Q.NumVertices()),
	}
}

// Tree returns the query tree this DCG indexes.
func (d *DCG) Tree() *query.Tree { return d.tree }

// slot returns the interner slot of v, or -1. graph.NoVertex never has a
// slot (its index exceeds any slotOf length).
//
//tf:hotpath
func (d *DCG) slot(v graph.VertexID) int32 {
	if int(v) < len(d.slotOf) {
		return d.slotOf[v]
	}
	return -1
}

// ensureSlot returns v's slot, interning it if absent: recycled slots are
// reused, otherwise a fresh slot is appended.
func (d *DCG) ensureSlot(v graph.VertexID) int32 {
	if int(v) >= len(d.slotOf) {
		n := int(v) + 1
		if n < 2*len(d.slotOf) {
			n = 2 * len(d.slotOf) // amortize repeated growth
		}
		ns := make([]int32, n)
		copy(ns, d.slotOf)
		for i := len(d.slotOf); i < n; i++ {
			ns[i] = -1
		}
		d.slotOf = ns
	}
	if s := d.slotOf[v]; s >= 0 {
		return s
	}
	var s int32
	if n := len(d.free); n > 0 {
		s = int32(d.free[n-1])
		d.free = d.free[:n-1]
	} else {
		s = int32(len(d.nodes))
		d.nodes = append(d.nodes, node{})
		d.vids = append(d.vids, graph.NoVertex)
		for len(d.inBits)*64 < len(d.nodes)*d.nq {
			d.inBits = append(d.inBits, 0)
			d.outBits = append(d.outBits, 0)
		}
	}
	d.vids[s] = v
	d.slotOf[v] = s
	return s
}

// labelBit returns the word index and mask of (slot s, label u) in
// inBits/outBits.
//
//tf:hotpath
func (d *DCG) labelBit(s int32, u graph.VertexID) (int, uint64) {
	i := int(s)*d.nq + int(u)
	return i >> 6, 1 << (i & 63)
}

// maybeRelease recycles slot s when its vertex no longer stores any
// in-edge or explicit child.
func (d *DCG) maybeRelease(s int32) {
	n := &d.nodes[s]
	if len(n.in) != 0 || len(n.out) != 0 || d.vids[s] == graph.NoVertex {
		return
	}
	d.slotOf[d.vids[s]] = -1
	d.vids[s] = graph.NoVertex
	d.free = append(d.free, uint32(s))
}

// GetState returns the state of DCG edge (v, u, v2). Use graph.NoVertex as
// v for root-labeled edges (v*_s, u_s, v2).
//
//tf:hotpath
func (d *DCG) GetState(v graph.VertexID, u graph.VertexID, v2 graph.VertexID) State {
	s := d.slot(v2)
	if s < 0 {
		return Null
	}
	if w, m := d.labelBit(s, u); d.inBits[w]&m == 0 {
		return Null
	}
	l := d.nodes[s].in
	k := key(u, v)
	if i := lowerIn(l, k); i < len(l) && l[i].key() == k {
		return l[i].state
	}
	return Null
}

// MakeTransition sets the state of DCG edge (v, u, v2) to target and
// reports whether the stored state actually changed. Counts (per-label
// explicit totals, total edges) and the parent's explicit children are
// maintained here so every engine path stays consistent.
//
//tf:hotpath
func (d *DCG) MakeTransition(v graph.VertexID, u graph.VertexID, v2 graph.VertexID, target State) bool {
	s2 := d.slot(v2)
	idx := 0
	cur := Null
	if s2 >= 0 {
		l := d.nodes[s2].in
		k := key(u, v)
		if idx = lowerIn(l, k); idx < len(l) && l[idx].key() == k {
			cur = l[idx].state
		}
	}
	if cur == target {
		return false
	}

	// Leaving Explicit: remove v2 from the parent's sorted explicit-
	// children array, preserving ascending order so candidate enumeration
	// stays a pure function of the DCG state (see the package comment).
	if cur == Explicit {
		d.numExplicit--
		d.explByLabel[u]--
		if v != graph.NoVertex {
			ps := d.slot(v) // parent owns an out entry, so it has a slot
			pn := &d.nodes[ps]
			op := lowerOut(pn.out, key(u, v2))
			copy(pn.out[op:], pn.out[op+1:])
			l := pn.out[:len(pn.out)-1]
			pn.out = l
			if (op == len(l) || l[op].QV != u) && (op == 0 || l[op-1].QV != u) {
				w, m := d.labelBit(ps, u)
				d.outBits[w] &^= m
			}
		}
	}

	// Update v2's in-edge storage.
	switch {
	case target == Null: // cur != Null: remove, keeping the array sorted
		n := &d.nodes[s2]
		l := n.in
		copy(l[idx:], l[idx+1:])
		l = l[:len(l)-1]
		if (idx == len(l) || l[idx].u != u) && (idx == 0 || l[idx-1].u != u) {
			w, m := d.labelBit(s2, u)
			d.inBits[w] &^= m
		}
		switch {
		case len(l) == 0 && cap(l) > inKeepEmpty:
			n.in = nil
		case cap(l) >= inShrinkMin && len(l)*4 <= cap(l):
			nl := make([]inEdge, len(l), cap(l)/2)
			copy(nl, l)
			n.in = nl
		default:
			n.in = l
		}
		d.numEdges--
	case cur == Null: // insert at the sorted position
		if s2 < 0 {
			s2 = d.ensureSlot(v2)
			idx = 0
		}
		n := &d.nodes[s2]
		l := append(n.in, inEdge{})
		copy(l[idx+1:], l[idx:])
		l[idx] = inEdge{u: u, parent: v, state: target}
		n.in = l
		w, m := d.labelBit(s2, u)
		d.inBits[w] |= m
		d.numEdges++
	default: // Implicit <-> Explicit: in place
		d.nodes[s2].in[idx].state = target
	}

	// Entering Explicit: insert v2 into the parent's explicit-children
	// array at its sorted position. ensureSlot may grow d.nodes, so slot
	// pointers are re-resolved after it.
	if target == Explicit {
		d.numExplicit++
		d.explByLabel[u]++
		if v != graph.NoVertex {
			ps := d.ensureSlot(v)
			pn := &d.nodes[ps]
			op := lowerOut(pn.out, key(u, v2))
			l := append(pn.out, Child{})
			copy(l[op+1:], l[op:])
			l[op] = Child{QV: u, V: v2}
			pn.out = l
			w, m := d.labelBit(ps, u)
			d.outBits[w] |= m
		}
	}

	// Recycle emptied slots: v2 after an in-edge removal, the parent after
	// losing its last explicit child.
	if cur == Explicit && target != Explicit && v != graph.NoVertex {
		d.maybeRelease(d.slot(v))
	}
	if target == Null {
		d.maybeRelease(s2)
	}
	return true
}

// InDegree returns the number of stored (implicit or explicit) incoming
// edges of v2 labeled u — the paper's |GetImplAndExplEdges(v2, u, in)|.
//
//tf:hotpath
func (d *DCG) InDegree(v2 graph.VertexID, u graph.VertexID) int {
	s := d.slot(v2)
	if s < 0 {
		return 0
	}
	l := d.nodes[s].in
	lo := lowerIn(l, key(u, 0))
	return lowerIn(l[lo:], labelEnd(u))
}

// AppendInParents appends the parents of v2's stored incoming edges
// labeled u to dst, optionally restricted to explicit edges, in ascending
// vertex order, and returns the extended slice. The upward traversals
// climb these snapshots on the way to reporting matches, so their order
// must be reproducible for a given update stream — the sorted in-edge
// layout provides that without per-call sorting or allocation (callers
// pass a reusable scratch buffer).
//
//tf:hotpath
func (d *DCG) AppendInParents(dst []graph.VertexID, v2 graph.VertexID, u graph.VertexID, explicitOnly bool) []graph.VertexID {
	s := d.slot(v2)
	if s < 0 {
		return dst
	}
	l := d.nodes[s].in
	for i := lowerIn(l, key(u, 0)); i < len(l) && l[i].u == u; i++ {
		if explicitOnly && l[i].state != Explicit {
			continue
		}
		dst = append(dst, l[i].parent)
	}
	return dst
}

// HasInLabel reports whether v has at least one stored incoming edge
// labeled u (the "u ∈ U" test in Algorithms 5 and 8).
//
//tf:hotpath
func (d *DCG) HasInLabel(v graph.VertexID, u graph.VertexID) bool {
	s := d.slot(v)
	if s < 0 {
		return false
	}
	w, m := d.labelBit(s, u)
	return d.inBits[w]&m != 0
}

// ExplicitOut returns the number of outgoing EXPLICIT edges of v labeled u.
//
//tf:hotpath
func (d *DCG) ExplicitOut(v graph.VertexID, u graph.VertexID) int32 {
	s := d.slot(v)
	if s < 0 {
		return 0
	}
	l := d.nodes[s].out
	lo := lowerOut(l, key(u, 0))
	return int32(lowerOut(l[lo:], labelEnd(u)))
}

// MatchAllChildren reports whether, for every child u' of u in the query
// tree, v has an outgoing EXPLICIT edge labeled u' (Algorithm 4): one
// bitmap test per child.
//
//tf:hotpath
func (d *DCG) MatchAllChildren(v graph.VertexID, u graph.VertexID) bool {
	children := d.tree.Children[u]
	s := d.slot(v)
	if s < 0 {
		return len(children) == 0
	}
	for _, c := range children {
		if w, m := d.labelBit(s, c); d.outBits[w]&m == 0 {
			return false
		}
	}
	return true
}

// ExplicitChildrenList returns the explicit out-neighbors of v labeled u —
// the data vertices v' with GetState(v, u, v') == Explicit, in ascending
// order — as a slice owned by the DCG: callers read Child.V, must not
// mutate it and must not hold it across transitions. This is the
// candidate enumeration of SubgraphSearch (Algorithm 7, Line 15):
// candidates come straight from the DCG, never by filtering data-graph
// neighbors, which keeps the search cost proportional to the number of
// candidates, not the vertex degree.
//
//tf:hotpath
func (d *DCG) ExplicitChildrenList(v graph.VertexID, u graph.VertexID) []Child {
	s := d.slot(v)
	if s < 0 {
		return nil
	}
	// The caller walks the whole sub-range, so a linear scan for its end
	// costs no more than a second binary search.
	l := d.nodes[s].out
	lo := lowerOut(l, key(u, 0))
	hi := lo
	for hi < len(l) && l[hi].QV == u {
		hi++
	}
	return l[lo:hi]
}

// RootCandidates returns the data vertices v_s whose root edge
// (v*_s, u_s, v_s) is stored, filtered to explicit ones when explicitOnly,
// in ascending vertex order. SubgraphSearch seeds from this slice, so a
// deterministic order here is a precondition for deterministic match
// emission.
func (d *DCG) RootCandidates(explicitOnly bool) []graph.VertexID {
	var out []graph.VertexID
	rk := key(d.tree.Root, graph.NoVertex)
	for s := range d.nodes {
		v := d.vids[s]
		if v == graph.NoVertex {
			continue // recycled slot
		}
		l := d.nodes[s].in
		i := lowerIn(l, rk)
		if i == len(l) || l[i].key() != rk {
			continue
		}
		if !explicitOnly || l[i].state == Explicit {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// NumEdges returns the number of stored (implicit + explicit) DCG edges,
// including root edges from v*_s.
func (d *DCG) NumEdges() int { return d.numEdges }

// NumExplicit returns the number of stored EXPLICIT edges.
func (d *DCG) NumExplicit() int { return d.numExplicit }

// ExplicitCount returns the number of EXPLICIT edges labeled u — the exact
// count of explicit data paths ending at a u-candidate, used to drive the
// matching order (Section 4.1).
func (d *DCG) ExplicitCount(u graph.VertexID) int64 { return d.explByLabel[u] }

// SizeBytes returns the accounting size of the DCG for intermediate-result
// comparisons: stored edges times EdgeBytes.
func (d *DCG) SizeBytes() int64 { return int64(d.numEdges) * EdgeBytes }

// slotStats returns interner occupancy: slots ever allocated and slots
// currently on the free list. Tests use it to pin recycling behavior.
func (d *DCG) slotStats() (slots, free int) {
	return len(d.nodes), len(d.free)
}

// Validate checks internal consistency: both per-slot arrays strictly
// sorted by (label, vertex), every explicit in-edge mirrored in its
// parent's explicit children and vice versa, the label bitmaps, the
// interner (slotOf/vids agreement, free-list hygiene), and the per-label
// and total counters agreeing with the stored edges. It returns the first inconsistency
// found. Tests and the failure-injection suite call this after every
// update.
//
//tf:map-ok test-support invariant checker, never on the eval path
func (d *DCG) Validate() error {
	if len(d.vids) != len(d.nodes) {
		return fmt.Errorf("dcg: interner arrays out of sync: %d nodes, %d vids", len(d.nodes), len(d.vids))
	}
	onFree := make(map[int32]bool, len(d.free))
	for _, s := range d.free {
		if int(s) >= len(d.nodes) {
			return fmt.Errorf("dcg: free slot %d out of range", s)
		}
		if onFree[int32(s)] {
			return fmt.Errorf("dcg: slot %d on the free list twice", s)
		}
		onFree[int32(s)] = true
	}
	for v, s := range d.slotOf {
		if s < 0 {
			continue
		}
		if int(s) >= len(d.nodes) {
			return fmt.Errorf("dcg: slotOf[%d]=%d out of range", v, s)
		}
		if d.vids[s] != graph.VertexID(v) {
			return fmt.Errorf("dcg: slotOf[%d]=%d but vids[%d]=%d", v, s, s, d.vids[s])
		}
	}
	if len(d.inBits)*64 < len(d.nodes)*d.nq || len(d.outBits) != len(d.inBits) {
		return fmt.Errorf("dcg: label bitmaps of %d/%d words too short for %d slots", len(d.inBits), len(d.outBits), len(d.nodes))
	}
	edges, explicit := 0, 0
	explByLabel := make([]int64, d.nq)
	hasIn, hasOut := make([]bool, d.nq), make([]bool, d.nq)
	for s := range d.nodes {
		n := &d.nodes[s]
		v2 := d.vids[s]
		clear(hasIn)
		clear(hasOut)
		for _, e := range n.in {
			if int(e.u) < d.nq {
				hasIn[e.u] = true
			}
		}
		for _, c := range n.out {
			if int(c.QV) < d.nq {
				hasOut[c.QV] = true
			}
		}
		for u := range d.nq {
			w, m := d.labelBit(int32(s), graph.VertexID(u))
			if (d.inBits[w]&m != 0) != hasIn[u] || (d.outBits[w]&m != 0) != hasOut[u] {
				return fmt.Errorf("dcg: label bitmaps of slot %d disagree with its arrays at label %d", s, u)
			}
		}
		if v2 == graph.NoVertex {
			if !onFree[int32(s)] {
				return fmt.Errorf("dcg: slot %d has no vertex but is not on the free list", s)
			}
			if len(n.in) != 0 || len(n.out) != 0 {
				return fmt.Errorf("dcg: free slot %d stores %d in-edges and %d children", s, len(n.in), len(n.out))
			}
			continue
		}
		if onFree[int32(s)] {
			return fmt.Errorf("dcg: live slot %d (vertex %d) is on the free list", s, v2)
		}
		if int(v2) >= len(d.slotOf) || d.slotOf[v2] != int32(s) {
			return fmt.Errorf("dcg: vids[%d]=%d but slotOf does not point back", s, v2)
		}
		if len(n.in) == 0 && len(n.out) == 0 {
			return fmt.Errorf("dcg: empty slot %d (vertex %d) was not recycled", s, v2)
		}
		for i, e := range n.in {
			if int(e.u) >= d.nq {
				return fmt.Errorf("dcg: in-edge (%d,%d,%d) has an unknown label", e.parent, e.u, v2)
			}
			if i > 0 && n.in[i-1].key() >= e.key() {
				return fmt.Errorf("dcg: in-edges of %d not strictly sorted at %d", v2, i)
			}
			if e.state == Null {
				return fmt.Errorf("dcg: stored NULL edge (%d,%d,%d)", e.parent, e.u, v2)
			}
			edges++
			if e.state != Explicit {
				continue
			}
			explicit++
			explByLabel[e.u]++
			if e.parent == graph.NoVertex {
				continue
			}
			ps := d.slot(e.parent)
			if ps < 0 {
				return fmt.Errorf("dcg: explicit edge (%d,%d,%d) but parent has no slot", e.parent, e.u, v2)
			}
			pl, k := d.nodes[ps].out, key(e.u, v2)
			if i := lowerOut(pl, k); i == len(pl) || pl[i].key() != k {
				return fmt.Errorf("dcg: explicit edge (%d,%d,%d) missing from parent's children", e.parent, e.u, v2)
			}
		}
		for i, c := range n.out {
			if i > 0 && n.out[i-1].key() >= c.key() {
				return fmt.Errorf("dcg: explicit children of %d not strictly sorted at %d", v2, i)
			}
			cs := d.slot(c.V)
			if cs < 0 {
				return fmt.Errorf("dcg: explicit child (%d,%d,%d) has no slot", v2, c.QV, c.V)
			}
			cl, k := d.nodes[cs].in, key(c.QV, v2)
			if j := lowerIn(cl, k); j == len(cl) || cl[j].key() != k || cl[j].state != Explicit {
				return fmt.Errorf("dcg: out-adjacency (%d,%d,%d) not explicit", v2, c.QV, c.V)
			}
		}
	}
	if edges != d.numEdges {
		return fmt.Errorf("dcg: numEdges=%d, stored=%d", d.numEdges, edges)
	}
	if explicit != d.numExplicit {
		return fmt.Errorf("dcg: numExplicit=%d, stored=%d", d.numExplicit, explicit)
	}
	for u := 0; u < d.nq; u++ {
		if explByLabel[u] != d.explByLabel[u] {
			return fmt.Errorf("dcg: explByLabel[%d]=%d, stored=%d", u, d.explByLabel[u], explByLabel[u])
		}
	}
	return nil
}

// SnapEdge is one stored DCG edge with its state, as returned by Snapshot.
type SnapEdge struct {
	Key   EdgeKey
	State State
}

// Snapshot returns all stored edges sorted by (From, QV, To) — root edges
// from v*_s last, since graph.NoVertex is the maximum VertexID. The result
// is built in one pre-sized pass and is deterministic for a given DCG
// content, so byte/deep comparisons between snapshots need no
// canonicalization. Used by the oracle-equivalence and determinism tests.
func (d *DCG) Snapshot() []SnapEdge {
	out := make([]SnapEdge, 0, d.numEdges)
	for s := range d.nodes {
		v2 := d.vids[s]
		if v2 == graph.NoVertex {
			continue // recycled slot
		}
		for _, e := range d.nodes[s].in {
			out = append(out, SnapEdge{
				Key:   EdgeKey{From: e.parent, QV: e.u, To: v2},
				State: e.state,
			})
		}
	}
	slices.SortFunc(out, func(a, b SnapEdge) int {
		if c := cmp.Compare(a.Key.From, b.Key.From); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Key.QV, b.Key.QV); c != 0 {
			return c
		}
		return cmp.Compare(a.Key.To, b.Key.To)
	})
	return out
}

// SnapshotMap returns all stored edges as a map, the shape ComputeSpec
// produces — a convenience for oracle comparisons off the hot path.
//
//tf:oracle-ok cold oracle-comparison helper
func (d *DCG) SnapshotMap() map[EdgeKey]State {
	m := make(map[EdgeKey]State, d.numEdges)
	for _, e := range d.Snapshot() {
		m[e.Key] = e.State
	}
	return m
}

// EdgeKey identifies one DCG edge: (From, QV, To) where QV is the
// query-vertex label and From is graph.NoVertex for root edges.
type EdgeKey struct {
	From graph.VertexID
	QV   graph.VertexID
	To   graph.VertexID
}

// String formats the key like the paper's figures, e.g. "(v2, u3, v104)".
func (k EdgeKey) String() string {
	if k.From == graph.NoVertex {
		return fmt.Sprintf("(v*, u%d, v%d)", k.QV, k.To)
	}
	return fmt.Sprintf("(v%d, u%d, v%d)", k.From, k.QV, k.To)
}
