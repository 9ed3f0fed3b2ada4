package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"turboflux/internal/server"
)

// smallOps generates the first frames of a shrunken copy of a workload.
func smallOps(t *testing.T, name string, frames int) (*inputs, []op) {
	t.Helper()
	spec, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	spec.Scale = min(spec.Scale, 300)
	spec.Triples = min(spec.Triples, 6000)
	spec.Churn = 3
	in, err := generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := plan(in, frames)
	if err != nil {
		t.Fatal(err)
	}
	return in, ops
}

// TestChildSpansWithinParent checks the traced pass's span tree: every
// child lies inside its parent's interval and a parent's children,
// which run one after another, never add up to more than the parent.
func TestChildSpansWithinParent(t *testing.T) {
	for _, spec := range specs {
		in, ops := smallOps(t, spec.Name, 12)
		tp, err := tracedPass(in, ops, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		spans := tp.tr.spans
		childSum := make([]int64, len(spans))
		seen := make(map[uint8]bool)
		for i, s := range spans {
			seen[s.name] = true
			if s.end < s.start {
				t.Fatalf("%s: span %d (%s) ends before it starts", spec.Name, i, spanNames[s.name])
			}
			if s.parent < 0 {
				continue
			}
			p := spans[s.parent]
			if s.start < p.start || s.end > p.end {
				t.Fatalf("%s: span %d (%s) [%d,%d] outside parent %s [%d,%d]", spec.Name, i, spanNames[s.name], s.start, s.end, spanNames[p.name], p.start, p.end)
			}
			if s.frame != p.frame {
				t.Fatalf("%s: span %d in frame %d, parent in frame %d", spec.Name, i, s.frame, p.frame)
			}
			childSum[s.parent] += s.end - s.start
		}
		for i, s := range spans {
			if childSum[i] > s.end-s.start {
				t.Fatalf("%s: children of span %d (%s) cover %dns of its %dns", spec.Name, i, spanNames[s.name], childSum[i], s.end-s.start)
			}
		}
		lt := selfTimes(spans)
		for n := uint8(0); n < numSpanNames; n++ {
			if lt.self[n] < 0 || lt.self[n] > lt.total[n] {
				t.Fatalf("%s: %s self %d outside [0, total %d]", spec.Name, spanNames[n], lt.self[n], lt.total[n])
			}
		}
		for n := uint8(0); n < numSpanNames; n++ {
			if !seen[n] {
				t.Fatalf("%s: no %s span", spec.Name, spanNames[n])
			}
		}
	}
}

// TestPassesAgree checks the correctness gate's in-process side: the
// reference pass and both sweeps of the traced pass report the same
// frame totals, tallies and final counts.
func TestPassesAgree(t *testing.T) {
	for _, spec := range specs {
		in, ops := smallOps(t, spec.Name, 40)
		ref, err := referencePass(in, ops)
		if err != nil {
			t.Fatal(err)
		}
		in2, ops2 := smallOps(t, spec.Name, 40)
		tp, err := tracedPass(in2, ops2, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, other := range []*outcome{tp.core.out, tp.me.out} {
			if bad := compareOutcomes(ref.out, other); len(bad) > 0 {
				t.Fatalf("%s: %v", spec.Name, bad)
			}
		}
	}
}

func TestCovered(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},
		{start: 10, end: 30, parent: 0},
		{start: 20, end: 40, parent: 0},
		{start: 90, end: 120, parent: 0},
	}
	if got := covered(spans, spans[0], []int32{1, 2, 3}); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
	lt := selfTimes(spans)
	if lt.self[spFrame] != 60+20+20+30 {
		t.Fatalf("self = %d, want 130", lt.self[spFrame])
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that both metric sets carry
// exactly the names and units BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	in, ops := smallOps(t, "lsbench-durable-churn", 8)
	ref, err := referencePass(in, ops)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := tracedPass(in, ops, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fanout := "fanout workers=2 evals=0 skipped=0 pooled=0 batches=0 busy_ns=0"
	srv := &serverRun{ops: ops, updates: 1, window: time.Second, ackMeanNs: 1,
		before: server.StatsInfo{Raw: []string{fanout}}, after: server.StatsInfo{Raw: []string{fanout}}}
	layers, err := layerMetrics(in.spec, srv, ref, tp, map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  map[string]metric
		decl []struct{ Name, Unit string }
	}{{endToEndMetrics(srv), decl.EndToEnd}, {layers, decl.PerLayer}} {
		if len(c.got) != len(c.decl) {
			t.Errorf("%d metrics, BENCHMARK.json declares %d", len(c.got), len(c.decl))
		}
		for _, d := range c.decl {
			if m, ok := c.got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("metric %s: got %+v (present %v), declared unit %s", d.Name, m, ok, d.Unit)
			}
		}
	}
}
