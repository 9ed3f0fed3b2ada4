// Command turboflux runs continuous subgraph matching over stream files.
//
// It loads an initial graph and a query from text files, then replays an
// update stream, printing each positive (+) and negative (-) match as it
// is reported.
//
// Usage:
//
//	turboflux -graph g0.txt -query q.txt -stream updates.txt [-iso] [-quiet]
//	turboflux -data-dir state/ -query q.txt -stream updates.txt [-fsync always|interval|none]
//
// The query is registered as the single query of a MultiEngine, the
// engine the network server runs. With -data-dir it is a
// DurableMultiEngine instead: every update is journaled to a checksummed
// write-ahead log before evaluation, and on restart the directory is
// recovered (newest snapshot + log tail) instead of reloading -graph. The
// -graph file seeds a fresh directory only. Both modes print the same
// match transcript and totals for the same inputs.
//
// File formats (see internal/stream): the graph and stream files hold one
// record per line — "v <id> [<label>,...]" declares a vertex, "i <from>
// <label> <to>" inserts an edge, "d <from> <label> <to>" deletes one. The
// query file uses the same records, where vertex ids are query vertex ids
// 0..n-1 (deletions are invalid in queries).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"sync/atomic"
	"syscall"

	"turboflux"
	"turboflux/internal/graph"
	"turboflux/internal/stream"
)

// config holds the command-line settings of one run.
type config struct {
	graph, query, pattern, stream string
	dataDir, fsync                string
	iso, quiet, initial, explain  bool
}

func main() {
	var c config
	flag.StringVar(&c.graph, "graph", "", "initial graph file (required)")
	flag.StringVar(&c.query, "query", "", "query file (this or -pattern required)")
	flag.StringVar(&c.pattern, "pattern", "", "Cypher-like pattern, e.g. '(a:1)-[:0]->(b)' (labels are numeric names)")
	flag.StringVar(&c.stream, "stream", "", "update stream file (required)")
	flag.BoolVar(&c.iso, "iso", false, "use subgraph isomorphism semantics")
	flag.BoolVar(&c.quiet, "quiet", false, "suppress per-match output, print totals only")
	flag.BoolVar(&c.initial, "initial", false, "also report matches of the initial graph")
	flag.BoolVar(&c.explain, "explain", false, "print the execution plan before streaming")
	flag.StringVar(&c.dataDir, "data-dir", "", "durable mode: journal updates and recover state from this directory")
	flag.StringVar(&c.fsync, "fsync", "interval", "durable-mode fsync policy: always, interval or none")
	flag.Parse()
	if (c.graph == "" && c.dataDir == "") || (c.query == "" && c.pattern == "") || c.stream == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, c); err != nil {
		fmt.Fprintln(os.Stderr, "turboflux:", err)
		os.Exit(1)
	}
}

// queryName is the name the CLI registers its single query under.
const queryName = "q"

// streamEngine is the engine surface the streaming loop needs;
// *turboflux.MultiEngine and *turboflux.DurableMultiEngine both provide
// it.
type streamEngine interface {
	Register(name string, q *turboflux.Query, opt turboflux.Options) error
	InitialMatches() map[string]int64
	ApplyBatch([]turboflux.Update) (map[string]int64, error)
	Explain(name string) string
	Stats() map[string]turboflux.Stats
}

// run replays the stream of c against its query, writing the match
// transcript and totals to out.
func run(out io.Writer, c config) error {
	// Catch SIGINT/SIGTERM for the whole run, so a durable store opened
	// later is always closed through the deferred Compact+Close and the
	// WAL ends at a record boundary.
	var interrupted atomic.Bool
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	// Stop then close so the watcher goroutine exits with the run instead
	// of leaking: after Stop the runtime no longer sends on sigCh, so
	// closing it is safe and unblocks the receive.
	defer func() {
		signal.Stop(sigCh)
		close(sigCh)
	}()
	//tf:goroutine signal-watcher
	go func() {
		if sig, ok := <-sigCh; ok {
			interrupted.Store(true)
			fmt.Fprintf(os.Stderr, "turboflux: %v: finishing current chunk, closing store\n", sig)
		}
	}()

	var q *turboflux.Query
	var err error
	if c.pattern != "" {
		// Pattern label names must be the numeric labels used in the data
		// files; numericDict interns "12" as Label(12).
		q, _, err = turboflux.ParseQuery(c.pattern, numericDict(), numericDict())
		if err != nil {
			return fmt.Errorf("parsing pattern: %w", err)
		}
	} else {
		q, err = loadQuery(c.query)
		if err != nil {
			return fmt.Errorf("loading query: %w", err)
		}
	}
	ups, err := loadUpdates(c.stream)
	if err != nil {
		return fmt.Errorf("loading stream: %w", err)
	}

	opt := turboflux.Options{}
	if c.iso {
		opt.Semantics = turboflux.Isomorphism
	}
	if !c.quiet {
		opt.OnMatch = matchPrinter(out)
	}
	if interrupted.Load() {
		return fmt.Errorf("interrupted before the engine was opened")
	}

	var eng streamEngine
	if c.dataDir != "" {
		deng, err := openDurable(out, c)
		if err != nil {
			return err
		}
		defer func() {
			if err := deng.Compact(); err != nil {
				fmt.Fprintln(os.Stderr, "turboflux: compacting:", err)
			}
			if err := deng.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "turboflux: closing store:", err)
			}
		}()
		eng = deng
	} else {
		g0, err := loadGraph(c.graph)
		if err != nil {
			return fmt.Errorf("loading graph: %w", err)
		}
		meng := turboflux.NewMultiEngine(g0)
		defer meng.Close() //tf:unchecked-ok pool release never fails
		eng = meng
	}
	if err := eng.Register(queryName, q, opt); err != nil {
		return err
	}

	if c.explain {
		fmt.Fprintln(out, eng.Explain(queryName))
	}
	if c.initial {
		fmt.Fprintf(out, "# initial matches: %d\n", eng.InitialMatches()[queryName])
	}
	applied, err := applyInterruptible(eng, ups, &interrupted)
	if err != nil {
		return err
	}
	st := eng.Stats()[queryName]
	fmt.Fprintf(out, "# stream: %d updates, %d positive, %d negative, DCG %d edges\n",
		applied, st.PositiveMatches, st.NegativeMatches, st.DCGEdges)
	return nil
}

// applyInterruptible replays ups in batched chunks (each journaled as one
// log write and evaluated through the batch pipeline), stopping cleanly
// at a chunk boundary once interrupted is set so the deferred
// Compact+Close still runs and a durable store's write-ahead log is
// closed without a torn tail.
func applyInterruptible(eng streamEngine, ups []turboflux.Update, interrupted *atomic.Bool) (int, error) {
	applied := 0
	for _, chunk := range stream.Batches(ups, 1024) {
		if interrupted.Load() {
			fmt.Fprintf(os.Stderr, "turboflux: interrupted after %d/%d updates\n", applied, len(ups))
			break
		}
		if _, err := eng.ApplyBatch(chunk); err != nil {
			return applied, err
		}
		applied += len(chunk)
	}
	return applied, nil
}

// openDurable opens the durable engine in c.dataDir, seeding a fresh
// directory from the -graph file (when given) and reporting what
// recovery found.
func openDurable(out io.Writer, c config) (*turboflux.DurableMultiEngine, error) {
	dopt := turboflux.DurableMultiOptions{Fsync: c.fsync}
	if c.graph != "" {
		boot, err := loadGraphUpdates(c.graph)
		if err != nil {
			return nil, fmt.Errorf("loading graph: %w", err)
		}
		dopt.Bootstrap = boot
	}
	deng, err := turboflux.OpenDurableMulti(c.dataDir, dopt)
	if err != nil {
		return nil, err
	}
	rec := deng.Recovery()
	switch {
	case rec.Fresh:
		fmt.Fprintf(out, "# durable: fresh store in %s (fsync=%s)\n", c.dataDir, c.fsync)
	default:
		fmt.Fprintf(out, "# durable: recovered snapshot@%d + %d replayed updates (%d torn bytes dropped)\n",
			rec.SnapshotLSN, rec.Replayed, rec.TruncatedBytes)
	}
	return deng, nil
}

// matchPrinter returns an OnMatch callback writing one line per match to
// out: the sign, then each query vertex's data vertex.
func matchPrinter(out io.Writer) func(bool, []turboflux.VertexID) {
	return func(positive bool, m []turboflux.VertexID) {
		sign := byte('+')
		if !positive {
			sign = '-'
		}
		fmt.Fprintf(out, "%c ", sign)
		for u, v := range m {
			if u > 0 {
				fmt.Fprint(out, " ")
			}
			fmt.Fprintf(out, "u%d=%d", u, v)
		}
		fmt.Fprintln(out)
	}
}

// loadGraph reads a graph file in either the text stream format or the
// compact binary format (sniffed by the "TFG1" magic).
func loadGraph(path string) (*turboflux.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //tf:unchecked-ok read-only file
	br := bufio.NewReader(f)
	if magic, err := br.Peek(4); err == nil && string(magic) == "TFG1" {
		return graph.ReadBinary(br)
	}
	ups, err := turboflux.DecodeStream(br)
	if err != nil {
		return nil, err
	}
	g := turboflux.NewGraph()
	for _, u := range ups {
		u.Apply(g)
	}
	return g, nil
}

// loadGraphUpdates reads a graph file as a bootstrap update history for
// durable mode. Text files decode directly; binary snapshots are expanded
// into vertex declarations and insertions in deterministic (sorted) order
// so the journaled history is reproducible.
func loadGraphUpdates(path string) ([]turboflux.Update, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //tf:unchecked-ok read-only file
	br := bufio.NewReader(f)
	if magic, err := br.Peek(4); err == nil && string(magic) == "TFG1" {
		g, err := graph.ReadBinary(br)
		if err != nil {
			return nil, err
		}
		return graphToUpdates(g), nil
	}
	return turboflux.DecodeStream(br)
}

func graphToUpdates(g *turboflux.Graph) []turboflux.Update {
	var verts []turboflux.VertexID
	g.ForEachVertex(func(v turboflux.VertexID) { verts = append(verts, v) })
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
	ups := make([]turboflux.Update, 0, len(verts)+g.NumEdges())
	for _, v := range verts {
		ups = append(ups, turboflux.DeclareVertex(v, g.Labels(v)...))
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].Label != edges[j].Label {
			return edges[i].Label < edges[j].Label
		}
		return edges[i].To < edges[j].To
	})
	for _, e := range edges {
		ups = append(ups, turboflux.Insert(e.From, e.Label, e.To))
	}
	return ups
}

func loadQuery(path string) (*turboflux.Query, error) {
	ups, err := loadUpdates(path)
	if err != nil {
		return nil, err
	}
	maxV := turboflux.VertexID(0)
	for _, u := range ups {
		switch u.Op {
		case stream.OpVertex:
			if u.Vertex > maxV {
				maxV = u.Vertex
			}
		case stream.OpInsert:
			if u.Edge.From > maxV {
				maxV = u.Edge.From
			}
			if u.Edge.To > maxV {
				maxV = u.Edge.To
			}
		case stream.OpDelete:
			return nil, fmt.Errorf("query file must not contain deletions")
		}
	}
	q := turboflux.NewQuery(int(maxV) + 1)
	for _, u := range ups {
		switch u.Op {
		case stream.OpVertex:
			q.SetLabels(u.Vertex, u.Labels...)
		case stream.OpInsert:
			if err := q.AddEdge(u.Edge.From, u.Edge.Label, u.Edge.To); err != nil {
				return nil, err
			}
		}
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// numericDict interns decimal strings so that pattern label "12" resolves
// to Label(12), matching the numeric labels of the data files.
func numericDict() *turboflux.Dict {
	d := turboflux.NewDict()
	for i := 0; i < 256; i++ {
		d.Intern(fmt.Sprintf("%d", i))
	}
	return d
}

func loadUpdates(path string) ([]turboflux.Update, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //tf:unchecked-ok read-only file
	return turboflux.DecodeStream(f)
}
