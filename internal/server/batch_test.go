package server

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"turboflux"
)

// batchWorkload builds a deterministic update mix over 10 bootstrapped
// vertices: edge churn on the "knows"/"likes" labels plus occasional
// fresh vertex declarations (the batch scheduler's solo path) and deletes
// of absent edges (its no-op path).
func batchWorkload() []turboflux.Update {
	const nVertices = 10
	rng := rand.New(rand.NewSource(42))
	var ups []turboflux.Update
	next := turboflux.VertexID(nVertices + 1)
	for len(ups) < 160 {
		hi := int(next) - 1
		l := turboflux.Label(rng.Intn(2)) // knows or likes
		from := turboflux.VertexID(1 + rng.Intn(hi))
		to := turboflux.VertexID(1 + rng.Intn(hi))
		switch r := rng.Float64(); {
		case r < 0.06:
			ups = append(ups, turboflux.DeclareVertex(next, 0))
			next++
		case r < 0.75:
			ups = append(ups, turboflux.Insert(from, l, to))
		default:
			ups = append(ups, turboflux.Delete(from, l, to))
		}
	}
	return ups
}

// batchQueries are the workload's standing queries. Registration order
// is part of the emission order within an update, so it is fixed.
var batchQueries = []struct{ name, pattern string }{
	{"knows2", "(a:P)-[:knows]->(b:P)"},
	{"likes2", "(a:P)-[:likes]->(b:P)"},
	{"knows2rev", "(b:P)-[:knows]->(a:P)"},
}

// batchDicts builds the workload's label dictionaries and bootstrap: 10
// vertices labeled P, edge labels knows and likes.
func batchDicts() (vdict, edict *turboflux.Dict, boot []turboflux.Update) {
	vdict = turboflux.NewDict()
	vdict.Intern("P")
	edict = turboflux.NewDict()
	edict.Intern("knows")
	edict.Intern("likes")
	for v := turboflux.VertexID(1); v <= 10; v++ {
		boot = append(boot, turboflux.DeclareVertex(v, 0))
	}
	return vdict, edict, boot
}

// batchReference computes the expected subscriber transcripts offline,
// sharing no code with the serving path: one independent Engine per
// query over its own bootstrap graph, the workload applied in order with
// update i stamped seq i+1.
func batchReference(t *testing.T) map[string][]transcriptEntry {
	t.Helper()
	vdict, edict, boot := batchDicts()
	want := map[string][]transcriptEntry{}
	var seq uint64
	var engs []*turboflux.Engine
	for _, reg := range batchQueries {
		q, _, err := turboflux.ParseQuery(reg.pattern, vdict, edict)
		if err != nil {
			t.Fatal(err)
		}
		g := turboflux.NewGraph()
		for _, u := range boot {
			u.Apply(g)
		}
		name := reg.name
		eng, err := turboflux.NewEngine(g, q, turboflux.Options{
			OnMatch: func(positive bool, m []turboflux.VertexID) {
				sign := byte('+')
				if !positive {
					sign = '-'
				}
				want[name] = append(want[name], transcriptEntry{seq: seq, sign: sign, mapping: mappingKey(m)})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		engs = append(engs, eng)
	}
	for i, u := range batchWorkload() {
		seq = uint64(i + 1)
		for _, eng := range engs {
			if _, err := eng.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	return want
}

// runServerBatchWorkload drives one server with the workload and returns
// the subscriber's per-query transcripts plus the final STATS lines.
// batchSize 1 means per-update i/d/v requests; larger sizes send BATCH
// (or BATCHB) frames of that many updates.
func runServerBatchWorkload(t *testing.T, workers, batchSize int, binary bool) (map[string][]transcriptEntry, []string) {
	t.Helper()
	vdict, edict, boot := batchDicts()
	_, addr := startServer(t, Options{
		Slow:          PolicyBlock,
		QueueDepth:    256,
		VertexLabels:  vdict,
		EdgeLabels:    edict,
		Bootstrap:     boot,
		FanOutWorkers: workers,
	})

	admin := dialTest(t, addr)
	for _, reg := range batchQueries {
		if err := admin.Register(reg.name, reg.pattern); err != nil {
			t.Fatalf("register %s: %v", reg.name, err)
		}
	}
	sub := dialTest(t, addr)
	for _, reg := range batchQueries {
		if _, err := sub.Subscribe(reg.name); err != nil {
			t.Fatalf("subscribe %s: %v", reg.name, err)
		}
	}

	ups := batchWorkload()
	var want int64
	if batchSize <= 1 {
		for i, u := range ups {
			ack, err := admin.Apply(u)
			if err != nil {
				t.Fatalf("update %d: %v", i, err)
			}
			want += ack.Total
		}
	} else {
		for off := 0; off < len(ups); off += batchSize {
			end := off + batchSize
			if end > len(ups) {
				end = len(ups)
			}
			var back BatchAck
			var err error
			if binary {
				back, err = admin.BatchBinary(ups[off:end])
			} else {
				back, err = admin.Batch(ups[off:end])
			}
			if err != nil {
				t.Fatalf("batch at %d: %v", off, err)
			}
			if back.Applied != end-off {
				t.Fatalf("batch at %d: applied %d of %d", off, back.Applied, end-off)
			}
			want += back.Total
		}
	}
	if want == 0 {
		t.Fatal("workload produced no matches; nothing to compare")
	}

	got := map[string][]transcriptEntry{}
	var n int64
	timeout := time.After(10 * time.Second)
	for n < want {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatalf("event stream closed after %d/%d events: %v", n, want, sub.Err())
			}
			if ev.Evicted {
				t.Fatalf("evicted from %s under block policy", ev.Query)
			}
			sign := byte('+')
			if !ev.Positive {
				sign = '-'
			}
			got[ev.Query] = append(got[ev.Query], transcriptEntry{
				seq: ev.Seq, sign: sign, mapping: mappingKey(ev.Mapping)})
			n++
		case <-timeout:
			t.Fatalf("%d/%d events after 10s", n, want)
		}
	}
	select {
	case ev := <-sub.Events():
		t.Fatalf("unexpected extra event %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}

	lines, err := admin.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return got, lines
}

// comparableStats filters STATS down to the lines and fields that must be
// identical between a BATCH run and its per-update equivalent: the server
// sequencing counters, the fan-out routing counters (evals, skipped), the
// sharing counters and the per-query match counters. apply_latency is
// wall-clock timing; the sub lines carry pump-timing-dependent queue
// depths; the fanout line's pool fields (pooled, batches, busy_ns)
// legitimately change with how updates group into runs.
func comparableStats(t *testing.T, lines []string) []string {
	t.Helper()
	var out []string
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "apply_latency"), strings.HasPrefix(l, "sub "):
		case strings.HasPrefix(l, "fanout "):
			kv := map[string]string{}
			for _, f := range strings.Fields(l)[1:] {
				k, v, ok := strings.Cut(f, "=")
				if !ok {
					t.Fatalf("malformed fanout field %q in %q", f, l)
				}
				kv[k] = v
			}
			out = append(out, fmt.Sprintf("fanout workers=%s evals=%s skipped=%s",
				kv["workers"], kv["evals"], kv["skipped"]))
		default:
			out = append(out, l)
		}
	}
	return out
}

// TestServerBatchEquivalence pins the serving contract for BATCH frames:
// per-update i/d/v requests, BATCH and BATCHB frames must all produce
// the subscriber transcript of independent per-query engines — same
// events, same per-update sequence stamps, same order — and the frames
// the same STATS counters as the per-update requests, at both worker
// counts.
func TestServerBatchEquivalence(t *testing.T) {
	wantTr := batchReference(t)
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var wantStats []string
			for _, run := range []struct {
				name      string
				batchSize int
				binary    bool
			}{
				{"per-update", 1, false},
				{"BATCH/64", 64, false},
				{"BATCHB/64", 64, true},
			} {
				gotTr, gotLines := runServerBatchWorkload(t, workers, run.batchSize, run.binary)
				for name, want := range wantTr {
					gotEntries := gotTr[name]
					if len(gotEntries) != len(want) {
						t.Fatalf("%s query %s: %d events, want %d", run.name, name, len(gotEntries), len(want))
					}
					for k := range want {
						if gotEntries[k] != want[k] {
							t.Fatalf("%s query %s event %d: got %v, want %v",
								run.name, name, k, gotEntries[k], want[k])
						}
					}
				}
				for name := range gotTr {
					if _, ok := wantTr[name]; !ok {
						t.Fatalf("%s: unexpected events for query %s", run.name, name)
					}
				}
				gotStats := comparableStats(t, gotLines)
				if wantStats == nil {
					wantStats = gotStats
					continue
				}
				if len(gotStats) != len(wantStats) {
					t.Fatalf("%s: %d comparable STATS lines, want %d:\n%s\nvs\n%s",
						run.name, len(gotStats), len(wantStats),
						strings.Join(gotStats, "\n"), strings.Join(wantStats, "\n"))
				}
				for i := range wantStats {
					if gotStats[i] != wantStats[i] {
						t.Fatalf("%s STATS line %d:\n  got:  %s\n  want: %s",
							run.name, i, gotStats[i], wantStats[i])
					}
				}
			}
		})
	}
}
