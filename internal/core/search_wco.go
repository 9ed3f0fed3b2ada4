package core

import (
	"turboflux/internal/dcg"
	"turboflux/internal/graph"
)

// Strategy selects the SubgraphSearch candidate-enumeration style.
type Strategy uint8

const (
	// Backtracking iterates the DCG's explicit children of the tree parent
	// and validates non-tree edges per candidate (Algorithm 7, the paper's
	// default, built on TurboHom++).
	Backtracking Strategy = iota
	// WCOJoin is the worst-case-optimal variant the paper sketches in
	// Section 4.3: candidates for each query vertex come from intersecting
	// every available constraint list — the tree parent's explicit DCG
	// children plus the data adjacency of each already-mapped non-tree
	// neighbor — iterating the smallest list and probing the rest in O(1)
	// each, in the style of Generic Join run over the DCG instead of the
	// raw data graph.
	WCOJoin
)

func (s Strategy) String() string {
	if s == WCOJoin {
		return "wco-join"
	}
	return "backtracking"
}

// wcoConstraint is one non-tree adjacency constraint on the vertex being
// extended: the query edge and whether the candidate plays the From role.
type wcoConstraint struct {
	qe       graph.Edge
	selfLoop bool
	outward  bool // candidate is qe.From; the mapped endpoint is m(qe.To)
}

// check probes the constraint for candidate v.
func (c wcoConstraint) check(e *Engine, v graph.VertexID) bool {
	if c.selfLoop {
		return e.g.HasEdge(v, c.qe.Label, v)
	}
	if c.outward {
		w := e.m[c.qe.To]
		return w == graph.NoVertex || e.g.HasEdge(v, c.qe.Label, w)
	}
	w := e.m[c.qe.From]
	return w == graph.NoVertex || e.g.HasEdge(w, c.qe.Label, v)
}

// searchWCO extends the mapping at query vertex u (tree parent mapped to
// vp) by intersecting all constraint lists, iterating the smallest.
func (e *Engine) searchWCO(u graph.VertexID, vp graph.VertexID, dc int) {
	// Gather every constraint list: index -1 is the tree list; non-tree
	// lists carry their probe descriptor.
	treeList := e.d.ExplicitChildrenList(vp, u)
	type listed struct {
		list []graph.VertexID
		c    wcoConstraint
	}
	var lists []listed
	var selfLoops []wcoConstraint
	for _, nt := range e.tree.NonTreeAt[u] {
		qe := e.q.Edge(nt)
		if qe.From == u && qe.To == u {
			selfLoops = append(selfLoops, wcoConstraint{qe: qe, selfLoop: true})
			continue
		}
		if qe.From == u {
			w := e.m[qe.To]
			if w == graph.NoVertex {
				continue // unmapped neighbor constrains nothing yet
			}
			lists = append(lists, listed{
				list: e.g.InNeighbors(w, qe.Label), // {cand | cand -label-> w}
				c:    wcoConstraint{qe: qe, outward: true},
			})
		} else {
			w := e.m[qe.From]
			if w == graph.NoVertex {
				continue
			}
			lists = append(lists, listed{
				list: e.g.OutNeighbors(w, qe.Label), // {cand | w -label-> cand}
				c:    wcoConstraint{qe: qe, outward: false},
			})
		}
	}
	// Pick the smallest list to iterate; all others become probes.
	pick := -1 // -1 = tree list
	size := len(treeList)
	for i := range lists {
		if len(lists[i].list) < size {
			pick, size = i, len(lists[i].list)
		}
	}
	constraints := selfLoops
	for i := range lists {
		if i != pick {
			constraints = append(constraints, lists[i].c)
		}
	}

	if pick < 0 {
		for _, c := range treeList {
			if e.aborted {
				return
			}
			e.tryWCO(u, c.V, constraints, dc)
		}
		return
	}
	for _, v := range lists[pick].list {
		if e.aborted {
			return
		}
		if e.d.GetState(vp, u, v) != dcg.Explicit {
			continue // the tree list becomes a probe
		}
		e.tryWCO(u, v, constraints, dc)
	}
}

// tryWCO maps u to candidate v and recurses when v passes every probe.
func (e *Engine) tryWCO(u, v graph.VertexID, constraints []wcoConstraint, dc int) {
	if !e.usable(v) {
		return
	}
	for _, c := range constraints {
		if !c.check(e, v) {
			return
		}
	}
	e.mapVertex(u, v)
	e.subgraphSearch(dc + 1)
	e.unmapVertex(u)
}
