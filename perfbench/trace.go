package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span names: one per layer boundary the traced pass times.
const (
	spFrame    uint8 = iota // one request replayed in-process (root)
	spDecode                // stream.DecodeBinary / stream.ParseLine
	spAppend                // durable.Store.AppendBatch
	spSync                  // durable.Store.Sync
	spME                    // turboflux.MultiEngine.ApplyBatchFunc
	spReplay                // the core-driven replay of one frame (root)
	spGraph                 // graph.Graph InsertEdge / HasEdge+DeleteEdge
	spMaintain              // core Maintainer MaintainInsertedEdge / MaintainBeforeDelete
	spSearch                // shared-member EvalInsertedEdge / EvalBeforeDelete / AdjustOrderDeferred
	spRegister              // one query registration (root)
	spParse                 // qlang.Parse
	spBuild                 // core.BuildTree + NewWithTree (+ NewMaintainer)
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"frame", "stream.decode", "durable.append", "durable.sync", "multiengine.apply",
	"core.replay", "graph.write", "core.maintain", "core.search",
	"register", "qlang.parse", "core.build",
}

// span is one timed layer call. start and end are nanoseconds since the
// tracer's origin; parent is the index of the enclosing span, -1 at the
// root; frame is the request index in the replayed op sequence.
type span struct {
	start, end int64
	parent     int32
	frame      int32
	name       uint8
}

// tracer keeps spans in memory; write dumps them when the benchmark ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(name uint8, parent int32, frame int32) int32 {
	t.spans = append(t.spans, span{start: int64(time.Since(t.origin)), parent: parent, frame: frame, name: name})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	t.spans[i].end = int64(time.Since(t.origin))
}

// layerTimes is the per-layer total and self time of a span set. A
// span's self time is its duration minus the part of it that its
// children cover.
type layerTimes struct {
	total [numSpanNames]int64
	self  [numSpanNames]int64
	count [numSpanNames]int64
}

func selfTimes(spans []span) layerTimes {
	var lt layerTimes
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	for i, s := range spans {
		d := s.end - s.start
		lt.total[s.name] += d
		lt.count[s.name]++
		lt.self[s.name] += d - covered(spans, s, children[i])
	}
	return lt
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(spans []span, parent span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := spans[k].start, spans[k].end
		s = max(s, parent.start)
		e = min(e, parent.end)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, curS, curE int64
	curS, curE = -1, -1
	for _, x := range iv {
		if x[0] > curE {
			if curE > curS {
				sum += curE - curS
			}
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if curE > curS {
		sum += curE - curS
	}
	return sum
}

// write dumps the spans as gzipped CSV: index, frame, parent, name,
// start, end (a durable run records millions of spans).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriterSize(zw, 1<<16)
	fmt.Fprintln(w, "span,frame,parent,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.frame, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
