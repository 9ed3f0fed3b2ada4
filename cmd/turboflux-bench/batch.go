package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"turboflux"
	"turboflux/internal/durable"
	"turboflux/internal/stream"
)

// batchRow is one (batch size, workers) cell of the batch-evaluation
// grid. Batch size 1 is the per-update baseline: every update is a run
// of its own through the same routed executor, on exactly the same
// stream.
type batchRow struct {
	BatchSize int `json:"batch_size"`
	Workers   int `json:"workers"`

	Updates     int     `json:"updates"`
	NsPerUpdate float64 `json:"ns_per_update"`
	UpdatesPerS float64 `json:"updates_per_s"`
	Matches     int64   `json:"matches"`
	Evals       uint64  `json:"evals"`
	Skipped     uint64  `json:"skipped"`
	Pooled      uint64  `json:"pooled"`
	Batches     uint64  `json:"pool_batches"`
}

// batchReport is the BENCH_batch.json document.
type batchReport struct {
	GOMAXPROCS     int        `json:"gomaxprocs"`
	Queries        int        `json:"queries"`
	EdgeLabels     int        `json:"edge_labels"`
	UpdatesPerCell int        `json:"updates_per_cell"`
	Rows           []batchRow `json:"rows"`

	// The acceptance numbers: batched per-update throughput over the
	// per-update baseline on the same multi-query mix, per worker count.
	Speedup256Workers1 float64 `json:"speedup_batch256_vs_batch1_workers1"`
	Speedup256Workers4 float64 `json:"speedup_batch256_vs_batch1_workers4"`

	// WAL recovery: replaying the same log tail record-at-a-time
	// (ReplayBatch=1, the legacy path) vs through the batched Applier.
	RecoveryRecords     int     `json:"recovery_records"`
	RecoveryUnbatchedMs float64 `json:"recovery_unbatched_ms"`
	RecoveryBatchedMs   float64 `json:"recovery_batched_ms"`
	RecoverySpeedup     float64 `json:"recovery_speedup"`
}

// runBatch measures the end-to-end batch evaluation pipeline: per-update
// throughput across batch sizes and worker counts on a multi-query mix,
// plus WAL recovery time with and without replay batching.
func runBatch(outPath string, updates, records int) error {
	const queries, labels = 24, 12
	rep := batchReport{
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Queries:        queries,
		EdgeLabels:     labels,
		UpdatesPerCell: updates,
	}
	for _, workers := range []int{1, 4} {
		for _, bs := range []int{1, 16, 256, 4096} {
			// Best of 3: cells run tens of milliseconds, so take the
			// least-disturbed repetition (same policy as -exp fanout).
			var row batchRow
			for r := 0; r < 3; r++ {
				got, err := batchCell(queries, labels, workers, bs, updates)
				if err != nil {
					return err
				}
				if r == 0 || got.UpdatesPerS > row.UpdatesPerS {
					row = got
				}
			}
			rep.Rows = append(rep.Rows, row)
			fmt.Printf("batch size=%-4d workers=%-2d  %9.0f ups/s  %7.0f ns/up  evals=%d skipped=%d pooled=%d\n",
				bs, workers, row.UpdatesPerS, row.NsPerUpdate, row.Evals, row.Skipped, row.Pooled)
		}
	}
	for _, w := range []int{1, 4} {
		base := findBatchRow(rep.Rows, 1, w)
		fast := findBatchRow(rep.Rows, 256, w)
		if base != nil && fast != nil && base.UpdatesPerS > 0 {
			s := fast.UpdatesPerS / base.UpdatesPerS
			if w == 1 {
				rep.Speedup256Workers1 = s
			} else {
				rep.Speedup256Workers4 = s
			}
		}
	}
	fmt.Printf("batch speedup (256 vs 1): %.2fx at workers=1, %.2fx at workers=4\n",
		rep.Speedup256Workers1, rep.Speedup256Workers4)

	if err := recoveryBench(&rep, records); err != nil {
		return err
	}
	fmt.Printf("recovery: %.1f ms unbatched, %.1f ms batched (%.2fx) over %d records\n",
		rep.RecoveryUnbatchedMs, rep.RecoveryBatchedMs, rep.RecoverySpeedup, rep.RecoveryRecords)
	return writeJSON(outPath, rep)
}

// batchCell runs one grid cell: queries 2-hop patterns spread over the
// edge labels (two queries per label, so label routing skips most
// engines and pooled updates still exist), fed the same effective
// insert/delete stream in chunks of batchSize.
func batchCell(queries, labels, workers, batchSize, updates int) (batchRow, error) {
	const nVertices = 2000
	g := turboflux.NewGraph()
	for v := turboflux.VertexID(1); v <= nVertices; v++ {
		if v%4 == 0 {
			g.EnsureVertex(v, 0)
		} else {
			g.EnsureVertex(v, 1)
		}
	}
	m := turboflux.NewMultiEngine(g)
	defer m.Close() //tf:unchecked-ok bench teardown
	m.SetFanOutWorkers(workers)

	var matches int64
	for i := 0; i < queries; i++ {
		l := turboflux.Label(i % labels)
		q := turboflux.NewQuery(3)
		q.SetLabels(0, 0)
		q.SetLabels(1, 0)
		q.SetLabels(2, 0)
		if err := q.AddEdge(0, l, 1); err != nil {
			return batchRow{}, err
		}
		if err := q.AddEdge(1, l, 2); err != nil {
			return batchRow{}, err
		}
		err := m.Register(fmt.Sprintf("q%d", i), q, turboflux.Options{
			OnMatch: func(positive bool, _ []turboflux.VertexID) { matches++ },
		})
		if err != nil {
			return batchRow{}, err
		}
	}

	// Deterministic LCG stream, every update effective (no duplicate
	// inserts, no absent deletes), generated up front — the timed loop
	// measures ApplyBatch alone.
	live := make([]turboflux.Edge, 0, updates)
	liveSet := make(map[turboflux.Edge]struct{}, updates)
	state := uint32(98765)
	next := func(n uint32) uint32 {
		state = state*1664525 + 1013904223
		return (state >> 8) % n
	}
	ups := make([]turboflux.Update, 0, updates)
	for k := 0; k < updates; k++ {
		if k%5 == 4 && len(live) > 0 {
			i := int(next(uint32(len(live))))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(liveSet, e)
			ups = append(ups, turboflux.Delete(e.From, e.Label, e.To))
			continue
		}
		e := turboflux.Edge{Label: turboflux.Label(int(next(uint32(labels))))}
		for {
			e.From = turboflux.VertexID(next(nVertices) + 1)
			e.To = turboflux.VertexID(next(nVertices) + 1)
			if _, dup := liveSet[e]; !dup {
				break
			}
		}
		live = append(live, e)
		liveSet[e] = struct{}{}
		ups = append(ups, turboflux.Insert(e.From, e.Label, e.To))
	}

	// Warm up on the first tenth (DCG roots, pool spin-up, scratch
	// growth), then time the rest.
	warm := len(ups) / 10
	for _, chunk := range stream.Batches(ups[:warm], batchSize) {
		if _, err := m.ApplyBatch(chunk); err != nil {
			return batchRow{}, err
		}
	}
	timed := ups[warm:]
	start := time.Now()
	for _, chunk := range stream.Batches(timed, batchSize) {
		if _, err := m.ApplyBatch(chunk); err != nil {
			return batchRow{}, err
		}
	}
	wall := time.Since(start)

	fs := m.FanOutStats()
	return batchRow{
		BatchSize:   batchSize,
		Workers:     workers,
		Updates:     len(timed),
		NsPerUpdate: float64(wall.Nanoseconds()) / float64(len(timed)),
		UpdatesPerS: float64(len(timed)) / wall.Seconds(),
		Matches:     matches,
		Evals:       fs.Evals,
		Skipped:     fs.Skipped,
		Pooled:      fs.Pooled,
		Batches:     fs.Batches,
	}, nil
}

// recoveryBench writes one WAL and reopens it twice per mode, timing the
// log-tail replay with the legacy record-at-a-time path (ReplayBatch=1)
// and the batched Applier (default). Best of 3 reopens each.
func recoveryBench(rep *batchReport, records int) error {
	dir, err := os.MkdirTemp("", "tf-batch-rec-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //tf:unchecked-ok temp cleanup
	ups := durabilityUpdates(records)
	s, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNone})
	if err != nil {
		return err
	}
	for off := 0; off < len(ups); off += 1024 {
		end := off + 1024
		if end > len(ups) {
			end = len(ups)
		}
		if _, _, err := s.AppendBatch(ups[off:end]); err != nil {
			s.Close() //tf:unchecked-ok already failing
			return err
		}
		for _, u := range ups[off:end] {
			u.Apply(s.Graph())
		}
	}
	if err := s.Close(); err != nil {
		return err
	}

	reopen := func(replayBatch int) (float64, error) {
		best := 0.0
		for r := 0; r < 3; r++ {
			start := time.Now()
			s, err := durable.Open(dir, durable.Options{ReplayBatch: replayBatch})
			if err != nil {
				return 0, err
			}
			ms := float64(time.Since(start).Microseconds()) / 1e3
			replayed := s.Recovery().Replayed
			if err := s.Close(); err != nil {
				return 0, err
			}
			if replayed != len(ups) {
				return 0, fmt.Errorf("recovery replayed %d records, want %d", replayed, len(ups))
			}
			if r == 0 || ms < best {
				best = ms
			}
		}
		return best, nil
	}
	rep.RecoveryRecords = records
	if rep.RecoveryUnbatchedMs, err = reopen(1); err != nil {
		return err
	}
	if rep.RecoveryBatchedMs, err = reopen(0); err != nil {
		return err
	}
	if rep.RecoveryBatchedMs > 0 {
		rep.RecoverySpeedup = rep.RecoveryUnbatchedMs / rep.RecoveryBatchedMs
	}
	return nil
}

func findBatchRow(rows []batchRow, batchSize, workers int) *batchRow {
	for i := range rows {
		r := &rows[i]
		if r.BatchSize == batchSize && r.Workers == workers {
			return r
		}
	}
	return nil
}
