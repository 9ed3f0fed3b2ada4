package turboflux

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"turboflux/internal/stream"
)

// randomBatchStream extends randomStream with the update shapes the
// batch scheduler special-cases: mid-stream vertex declarations (fresh
// and duplicate), inserts that auto-create endpoint vertices, duplicate
// inserts of live edges and deletes of absent edges.
func randomBatchStream(rng *rand.Rand, nUpdates int) []Update {
	const nVerts = 24
	var ups []Update
	for v := VertexID(1); v <= nVerts; v++ {
		ups = append(ups, DeclareVertex(v, Label(v%2)))
	}
	next := VertexID(nVerts + 1)
	type edge struct {
		from, to VertexID
		l        Label
	}
	var inserted []edge
	for len(ups) < nUpdates {
		switch r := rng.Float64(); {
		case r < 0.08:
			// Fresh vertex declaration mid-stream: a solo update in a batch.
			ups = append(ups, DeclareVertex(next, Label(rng.Intn(2))))
			next++
		case r < 0.12:
			// Re-declaration of an existing vertex: an exact no-op.
			ups = append(ups, DeclareVertex(VertexID(1+rng.Intn(nVerts)), Label(rng.Intn(2))))
		case r < 0.18:
			// Insert auto-creating its destination vertex: another solo case.
			e := edge{from: VertexID(1 + rng.Intn(nVerts)), to: next, l: Label(rng.Intn(3))}
			next++
			inserted = append(inserted, e)
			ups = append(ups, Insert(e.from, e.l, e.to))
		case r < 0.68 || len(inserted) == 0:
			// Edge churn over every live vertex; collisions with a live edge
			// exercise the duplicate-insert no-op path.
			hi := int(next) - 1
			e := edge{
				from: VertexID(1 + rng.Intn(hi)),
				to:   VertexID(1 + rng.Intn(hi)),
				l:    Label(rng.Intn(3)),
			}
			inserted = append(inserted, e)
			ups = append(ups, Insert(e.from, e.l, e.to))
		case r < 0.78:
			// Delete of a random (often absent) edge: the no-op delete path.
			ups = append(ups, Delete(
				VertexID(1+rng.Intn(nVerts)), Label(rng.Intn(3)), VertexID(1+rng.Intn(nVerts))))
		default:
			e := inserted[rng.Intn(len(inserted))]
			ups = append(ups, Delete(e.from, e.l, e.to))
		}
	}
	return ups
}

// taggedTranscript returns an OnMatch writer for query name that appends
// to the one shared transcript b, so inter-query emission order
// (registration order within an update) is part of the compared bytes.
func taggedTranscript(b *strings.Builder, name string) func(positive bool, mapping []VertexID) {
	return func(positive bool, mapping []VertexID) {
		sign := byte('+')
		if !positive {
			sign = '-'
		}
		fmt.Fprintf(b, "%s%c%v;", name, sign, mapping)
	}
}

// registerBatchSpecs registers the specs' queries on m, all writing into
// one shared transcript.
func registerBatchSpecs(t *testing.T, m *MultiEngine, specs []parallelQuerySpec, b *strings.Builder) {
	t.Helper()
	for i, s := range specs {
		name := fmt.Sprintf("q%d", i)
		q, opt := s.build()
		opt.OnMatch = taggedTranscript(b, name)
		if err := m.Register(name, q, opt); err != nil {
			t.Fatal(err)
		}
	}
}

// runIndependent is the reference the MultiEngine transcript suites
// compare against, sharing no code with the MultiEngine executor: one
// Engine per query, each over its own graph, with every update applied to
// each engine in registration order. onMatch builds each query's OnMatch;
// boundary, when non-nil, runs after each update. With churn (see
// runMQOStream) the first and last queries are dropped a third of the way
// in and re-registered at two thirds, each over a graph rebuilt from the
// stream prefix. It returns the summed per-query counts and the final
// per-query engine stats.
func runIndependent(t *testing.T, specs []parallelQuerySpec, ups []Update, churn bool,
	onMatch func(name string) func(bool, []VertexID), boundary func(i int)) (map[string]int64, map[string]Stats) {
	t.Helper()
	type ref struct {
		spec int
		name string
		eng  *Engine
	}
	var refs []ref
	reg := func(i int, g *Graph) {
		name := fmt.Sprintf("q%d", i)
		q, opt := specs[i].build()
		opt.OnMatch = onMatch(name)
		eng, err := NewEngine(g, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref{i, name, eng})
	}
	for i := range specs {
		reg(i, NewGraph())
	}
	cut1, cut2 := -1, -1
	if churn {
		cut1, cut2 = len(ups)/3, 2*len(ups)/3
	}
	churned := []int{0, len(specs) - 1}
	totals := map[string]int64{}
	for i, u := range ups {
		switch i {
		case cut1:
			live := refs[:0]
			for _, r := range refs {
				if r.spec != churned[0] && r.spec != churned[1] {
					live = append(live, r)
				}
			}
			refs = live
		case cut2:
			for _, c := range churned {
				g := NewGraph()
				for _, p := range ups[:cut2] {
					p.Apply(g)
				}
				reg(c, g)
			}
		}
		for _, r := range refs {
			n, err := r.eng.Apply(u)
			if err != nil {
				t.Fatal(err)
			}
			if n != 0 {
				totals[r.name] += n
			}
		}
		if boundary != nil {
			boundary(i)
		}
	}
	stats := map[string]Stats{}
	for _, r := range refs {
		stats[r.name] = r.eng.Stats()
	}
	return totals, stats
}

// runReference renders runIndependent in the batch transcript format:
// query-tagged emissions with a boundary marker after each update, then
// the final engine state (see statsTrailer).
func runReference(t *testing.T, specs []parallelQuerySpec, ups []Update, churn bool) (string, map[string]int64) {
	t.Helper()
	var b strings.Builder
	totals, stats := runIndependent(t, specs, ups, churn,
		func(name string) func(bool, []VertexID) { return taggedTranscript(&b, name) },
		func(i int) { fmt.Fprintf(&b, "|%d;", i) })
	statsTrailer(&b, stats)
	return b.String(), totals
}

// statsTrailer appends each query's final match totals and DCG size to a
// transcript, in name order, so the compared bytes also cover engine
// state the emissions do not show (e.g. root-candidate bookkeeping for
// vertices created by updates a query was routed away from).
func statsTrailer(b *strings.Builder, stats map[string]Stats) {
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := stats[name]
		fmt.Fprintf(b, "#%s pos=%d neg=%d dcg=%d;", name, st.PositiveMatches, st.NegativeMatches, st.DCGEdges)
	}
}

// runBatchStream applies ups through ApplyBatchFunc in chunks of
// batchSize, writing the same boundary markers through the hook.
func runBatchStream(t *testing.T, workers, batchSize int, specs []parallelQuerySpec, ups []Update) (string, map[string]int64) {
	t.Helper()
	m := NewMultiEngine(NewGraph())
	defer m.Close() //tf:unchecked-ok test teardown
	m.SetFanOutWorkers(workers)
	var b strings.Builder
	registerBatchSpecs(t, m, specs, &b)
	totals := map[string]int64{}
	off := 0
	for _, chunk := range stream.Batches(ups, batchSize) {
		base := off
		counts, err := m.ApplyBatchFunc(chunk, func(i int) {
			fmt.Fprintf(&b, "|%d;", base+i)
		})
		if err != nil {
			t.Fatal(err)
		}
		for name, n := range counts {
			totals[name] += n
		}
		off += len(chunk)
	}
	statsTrailer(&b, m.Stats())
	return b.String(), totals
}

// firstDiff returns a window around the first byte where got and want
// diverge, for readable failure output.
func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := i - 60
	if lo < 0 {
		lo = 0
	}
	end := func(s string) int {
		if i+60 < len(s) {
			return i + 60
		}
		return len(s)
	}
	return fmt.Sprintf("at byte %d:\n  got:  …%s\n  want: …%s", i, got[lo:end(got)], want[lo:end(want)])
}

// TestBatchEquivalence is the tentpole property: for random streams
// (including mid-stream vertex creation and no-op updates) and random
// query mixes, ApplyBatchFunc produces a byte-identical interleaved
// transcript — emissions tagged by query, in registration order within
// each update, with per-update boundary markers — to independent
// per-query engines, across batch sizes and worker counts.
func TestBatchEquivalence(t *testing.T) {
	nUpdates := 600
	if testing.Short() {
		nUpdates = 200
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			specs := randomQuerySpecs(rng)
			ups := randomBatchStream(rng, nUpdates)
			wantTr, wantTot := runReference(t, specs, ups, false)
			for _, workers := range []int{1, 4, 8} {
				for _, bs := range []int{1, 16, 256, 4096} {
					gotTr, gotTot := runBatchStream(t, workers, bs, specs, ups)
					if gotTr != wantTr {
						t.Fatalf("workers=%d batch=%d: transcript diverged %s",
							workers, bs, firstDiff(gotTr, wantTr))
					}
					for name, want := range wantTot {
						if got := gotTot[name]; got != want {
							t.Fatalf("workers=%d batch=%d query %s: counts %d != sequential %d",
								workers, bs, name, got, want)
						}
					}
					for name := range gotTot {
						if _, ok := wantTot[name]; !ok {
							t.Fatalf("workers=%d batch=%d: unexpected counts for %s", workers, bs, name)
						}
					}
				}
			}
		})
	}
}

// TestBatchErrorEvaluatesAll pins the batch failure semantics: a
// budget-starved query fails every update it is relevant to, the joined
// error names each failing update index and query, errors.Is still sees
// ErrWorkBudget, and the rest of the batch is applied anyway so the
// graph tracks the stream.
func TestBatchErrorEvaluatesAll(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g := NewGraph()
			g.EnsureVertex(1, 0)
			g.EnsureVertex(2, 0)
			m := NewMultiEngine(g)
			defer m.Close() //tf:unchecked-ok test teardown
			m.SetFanOutWorkers(workers)
			mkQ := func() *Query {
				q := NewQuery(2)
				q.SetLabels(0, 0)
				q.SetLabels(1, 0)
				_ = q.AddEdge(0, 0, 1)
				return q
			}
			if err := m.Register("ok", mkQ(), Options{}); err != nil {
				t.Fatal(err)
			}
			// Budget 2 registers against the tiny graph but fails every
			// edge evaluation.
			if err := m.Register("starved", mkQ(), Options{WorkBudget: 2}); err != nil {
				t.Fatal(err)
			}
			ups := []Update{
				DeclareVertex(3, 0),
				DeclareVertex(4, 0),
				Insert(1, 0, 2),
				Insert(3, 0, 4),
				Insert(2, 0, 3),
			}
			counts, err := m.ApplyBatch(ups)
			if err == nil {
				t.Fatal("starved query must surface its errors")
			}
			if !errors.Is(err, ErrWorkBudget) {
				t.Fatalf("err = %v, want ErrWorkBudget", err)
			}
			for _, frag := range []string{`update 2 query "starved"`, `update 3 query "starved"`, `update 4 query "starved"`} {
				if !strings.Contains(err.Error(), frag) {
					t.Fatalf("err = %v, want fragment %q", err, frag)
				}
			}
			// The healthy query evaluated every update despite the failures.
			if counts["ok"] != 3 {
				t.Fatalf("counts = %v, want ok=3", counts)
			}
			// And the graph holds all three edges.
			for _, u := range ups[2:] {
				if !m.Graph().HasEdge(u.Edge.From, u.Edge.Label, u.Edge.To) {
					t.Fatalf("edge %v missing: failed update was not applied", u.Edge)
				}
			}
		})
	}
}

// TestBatchRoutingStats checks that the routing counters are
// path-independent: every worker count, per-update Apply and batches
// account the same evals and label-routing skips, so the serving STATS
// counters mean the same thing on every path.
func TestBatchRoutingStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	specs := []parallelQuerySpec{
		{shape: 0, elabels: [3]Label{0, 0, 0}},
		{shape: 0, elabels: [3]Label{2, 2, 2}},
	}
	ups := randomStream(rng, 300)

	stats := func(workers, batch int) (uint64, uint64) {
		m := NewMultiEngine(NewGraph())
		defer m.Close() //tf:unchecked-ok test teardown
		m.SetFanOutWorkers(workers)
		for i, s := range specs {
			q, opt := s.build()
			if err := m.Register(fmt.Sprintf("q%d", i), q, opt); err != nil {
				t.Fatal(err)
			}
		}
		if batch == 0 {
			for _, u := range ups {
				if _, err := m.Apply(u); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for _, chunk := range stream.Batches(ups, batch) {
				if _, err := m.ApplyBatch(chunk); err != nil {
					t.Fatal(err)
				}
			}
		}
		fs := m.FanOutStats()
		return fs.Evals, fs.Skipped
	}

	wantEvals, wantSkipped := stats(1, 0)
	if wantSkipped == 0 {
		t.Fatal("Skipped = 0: routing never engaged on a disjoint-label mix")
	}
	for _, workers := range []int{1, 4, 8} {
		for _, batch := range []int{0, 64} {
			gotEvals, gotSkipped := stats(workers, batch)
			if gotEvals != wantEvals || gotSkipped != wantSkipped {
				t.Fatalf("workers=%d batch=%d: evals=%d skipped=%d, want evals=%d skipped=%d (workers=1 per-update)",
					workers, batch, gotEvals, gotSkipped, wantEvals, wantSkipped)
			}
		}
	}
}
