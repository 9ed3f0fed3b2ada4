package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"turboflux/internal/core"
	"turboflux/internal/graph"
	"turboflux/internal/mqo"
	"turboflux/internal/query"
	"turboflux/internal/stream"
	"turboflux/internal/workload"
)

// workloadSpec fixes everything about a workload except the seed. The
// generated g0, patterns and update frames are a pure function of
// (spec, seed); the server receives only those inputs.
type workloadSpec struct {
	Name string `json:"name"`

	Dataset    string  `json:"dataset"` // "lsbench" or "netflow"
	Scale      int     `json:"scale"`   // LSBench users or Netflow hosts
	Triples    int     `json:"triples,omitempty"`
	StreamFrac float64 `json:"stream_frac"` // share of triples held back as the insert pool

	Shape   string `json:"shape"` // "cyclic" or "path"
	QSize   int    `json:"qsize"`
	Queries int    `json:"queries"` // distinct sub-patterns, all subscribed
	Copies  int    `json:"copies"`  // identical registrations per pattern

	// DelFrac is the share of updates that delete a live edge. Below 0.5
	// the graph grows, so the insert pool must outlast the run.
	DelFrac float64 `json:"del_frac"`
	Frame   int     `json:"frame"` // updates per BATCHB frame; 0 = one text line per update
	// Rate sizes the run: it sends Rate x --seconds updates, a fixed
	// amount of work whatever the server's speed, so per-update costs and
	// peak memory always describe the same graph. Open paces them at Rate
	// (open loop); otherwise one request is outstanding at a time and
	// Rate is set a little below the closed-loop throughput measured on a
	// two-vCPU host, with the run's time limit only as a cap.
	Rate  float64 `json:"rate_ups"`
	Open  bool    `json:"open_loop"`
	Churn int     `json:"churn_every"` // frames between UNREGISTER/REGISTER cycles
	// ChurnCopy adds a second churn query with the first one's shape, so
	// each cycle demotes and promotes a shared sub-pattern.
	ChurnCopy bool `json:"churn_copy"`
	Durable   bool `json:"durable"`
}

// specs are the benchmark's workloads; BENCHMARK.json records why each
// exists and the share of client time each layer took in it.
var specs = []workloadSpec{
	{
		Name: "lsbench-bulk", Dataset: "lsbench", Scale: 6000, StreamFrac: 0.8,
		Shape: "cyclic", QSize: 6, Queries: 32, Copies: 1,
		DelFrac: 0.2, Frame: 256, Rate: 30000, Churn: 16,
	},
	{
		Name: "netflow-live", Dataset: "netflow", Scale: 2000, Triples: 80000, StreamFrac: 0.5,
		Shape: "path", QSize: 3, Queries: 8, Copies: 1,
		DelFrac: 0.2, Rate: 2000, Open: true, Churn: 2000,
	},
	{
		Name: "lsbench-durable-churn", Dataset: "lsbench", Scale: 400, StreamFrac: 0.6,
		Shape: "cyclic", QSize: 5, Queries: 8, Copies: 3,
		DelFrac: 0.5, Frame: 64, Rate: 50000, Churn: 4, ChurnCopy: true, Durable: true,
	},
}

// querySeed draws every workload's standing query set. It is fixed
// rather than taken from --seed: across seeds, seed-drawn sets moved the
// per-update work several-fold (netflow path queries: 1.9 to 12.3
// matches per update over ten seeds), which swamps any regression bound.
// The seed still draws g0 and every update frame.
const querySeed = 1

func specByName(name string) (workloadSpec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// pattern is one query registration: its wire name and qlang text.
type pattern struct {
	Name string
	Text string
}

// inputs is everything generated for one run.
type inputs struct {
	spec     workloadSpec
	g0       []stream.Update // vertex declarations then edges: the -graph file
	patterns []pattern       // registered at set-up, in this order
	watched  []string        // names the subscriber subscribes to
	churn    []pattern       // unsubscribed queries cycled while updates stream
	queries  []*query.Graph  // the distinct queries rendered into patterns, churn last
	gen      *updateGen
}

// registrations lists every query registered at set-up: the standing
// patterns, then the churn queries.
func (in *inputs) registrations() []pattern {
	return append(append([]pattern(nil), in.patterns...), in.churn...)
}

// generate builds the run's inputs from the spec and seed alone: the seed
// draws g0 and the update stream, querySeed the queries.
func generate(spec workloadSpec, seed int64) (*inputs, error) {
	var ds *workload.Dataset
	switch spec.Dataset {
	case "lsbench":
		ds = workload.LSBench(workload.LSBenchConfig{Users: spec.Scale, StreamFraction: spec.StreamFrac, Seed: seed})
	case "netflow":
		ds = workload.Netflow(workload.NetflowConfig{Hosts: spec.Scale, Triples: spec.Triples, StreamFraction: spec.StreamFrac, Seed: seed})
	default:
		return nil, fmt.Errorf("unknown dataset %q", spec.Dataset)
	}
	in := &inputs{spec: spec}
	ds.Graph.ForEachVertex(func(v graph.VertexID) {
		in.g0 = append(in.g0, stream.DeclareVertex(v, ds.Graph.Labels(v)...))
	})
	live := ds.Graph.Edges()
	for _, e := range live {
		in.g0 = append(in.g0, stream.Insert(e.From, e.Label, e.To))
	}

	// Distinct sub-patterns: one per registered shape (copies share it),
	// plus one more for the churn query.
	qs, err := distinctQueries(ds, spec, spec.Queries+1)
	if err != nil {
		return nil, err
	}
	in.queries = qs
	for i, q := range qs[:spec.Queries] {
		text := renderQuery(q)
		for c := 0; c < spec.Copies; c++ {
			name := fmt.Sprintf("q%02d", i)
			if spec.Copies > 1 {
				name += string(rune('a' + c))
			}
			in.patterns = append(in.patterns, pattern{Name: name, Text: text})
			in.watched = append(in.watched, name)
		}
	}
	churn := renderQuery(qs[spec.Queries])
	in.churn = append(in.churn, pattern{Name: "churn0", Text: churn})
	if spec.ChurnCopy {
		in.churn = append(in.churn, pattern{Name: "churn1", Text: churn})
	}

	// The insert pool is the held-back part of the dataset, minus edges
	// g0 already holds and duplicates.
	seen := make(map[graph.Edge]bool, len(live))
	for _, e := range live {
		seen[e] = true
	}
	var pool []graph.Edge
	for _, u := range ds.Stream {
		if u.Op == stream.OpInsert && !seen[u.Edge] {
			seen[u.Edge] = true
			pool = append(pool, u.Edge)
		}
	}
	in.gen = &updateGen{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), live: live, pool: pool, delFrac: spec.DelFrac}
	return in, nil
}

// distinctQueries draws queries of the spec's shape until n of them have
// pairwise distinct sub-pattern keys over g0, so registrations share a
// DCG only where the spec asks for copies.
func distinctQueries(ds *workload.Dataset, spec workloadSpec, n int) ([]*query.Graph, error) {
	keys := make(map[string]bool)
	var out []*query.Graph
	for round := int64(0); round < 16 && len(out) < n; round++ {
		var cands []*query.Graph
		qseed := querySeed*1_000_003 + round
		switch spec.Shape {
		case "cyclic":
			cands = ds.CyclicQueries(2*n, spec.QSize, qseed)
		case "path":
			cands = ds.PathQueries(2*n, spec.QSize, qseed)
		default:
			return nil, fmt.Errorf("unknown query shape %q", spec.Shape)
		}
		for _, q := range cands {
			tree, err := core.BuildTree(ds.Graph, q, core.DefaultOptions())
			if err != nil {
				return nil, err
			}
			k := mqo.KeyOf(q, tree)
			if keys[k] {
				continue
			}
			keys[k] = true
			out = append(out, q)
			if len(out) == n {
				break
			}
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("only %d distinct %s queries of size %d", len(out), spec.Shape, spec.QSize)
	}
	return out, nil
}

// updateGen is the seeded update stream: each update deletes a random
// live edge with probability delFrac and otherwise inserts a random
// absent edge from the pool (deleted edges return to the pool). No
// update is a no-op and every endpoint already exists in g0.
type updateGen struct {
	rng     *rand.Rand
	live    []graph.Edge
	pool    []graph.Edge
	delFrac float64
	// forced counts deletions made only because the pool was empty; the
	// stream then no longer has the spec's deletion share.
	forced int
}

func (g *updateGen) next() stream.Update {
	if len(g.pool) == 0 {
		g.forced++
	}
	if len(g.pool) == 0 || (len(g.live) > 0 && g.rng.Float64() < g.delFrac) {
		i := g.rng.Intn(len(g.live))
		e := g.live[i]
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		g.pool = append(g.pool, e)
		return stream.Delete(e.From, e.Label, e.To)
	}
	i := g.rng.Intn(len(g.pool))
	e := g.pool[i]
	g.pool[i] = g.pool[len(g.pool)-1]
	g.pool = g.pool[:len(g.pool)-1]
	g.live = append(g.live, e)
	return stream.Insert(e.From, e.Label, e.To)
}

// renderQuery renders q as a qlang pattern over numeric label names (the
// server runs with -numeric-labels, so label i is named "i"). Every
// vertex is declared first, in ID order, so qlang.Parse assigns the same
// vertex IDs; then every edge follows in q's edge order.
func renderQuery(q *query.Graph) string {
	var b strings.Builder
	b.WriteString("MATCH ")
	for u := 0; u < q.NumVertices(); u++ {
		if u > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(v")
		b.WriteString(strconv.Itoa(u))
		for i, l := range q.Labels(graph.VertexID(u)) {
			if i == 0 {
				b.WriteByte(':')
			} else {
				b.WriteByte('|')
			}
			b.WriteString(strconv.Itoa(int(l)))
		}
		b.WriteByte(')')
	}
	for _, e := range q.Edges() {
		fmt.Fprintf(&b, ", (v%d)-[:%d]->(v%d)", e.From, e.Label, e.To)
	}
	return b.String()
}

// numericDict interns "0".."255" so label i is named "i", as the
// server's -numeric-labels flag does.
func numericDict() *graph.Dict {
	d := graph.NewDict()
	for i := 0; i < 256; i++ {
		d.Intern(strconv.Itoa(i))
	}
	return d
}

// sortedNames returns the keys of m in order.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
