package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"turboflux/internal/durable"
	"turboflux/internal/graph"
	"turboflux/internal/stream"
)

// durabilityReport is the BENCH_durability.json document: the perf
// trajectory of the storage subsystem (append throughput per fsync
// policy, recovery time with and without a snapshot).
type durabilityReport struct {
	Records     int   `json:"records"`
	WALBytes    int64 `json:"wal_bytes"`
	SegmentSize int64 `json:"segment_size"`

	// Per-policy append cost. "always" runs a reduced record count (one
	// fdatasync per record) reported separately.
	AppendNsPerOpNone     float64 `json:"append_ns_per_op_none"`
	AppendNsPerOpInterval float64 `json:"append_ns_per_op_interval"`
	AppendMBPerSecNone    float64 `json:"append_mb_per_s_none"`
	AlwaysRecords         int     `json:"always_records"`
	AppendNsPerOpAlways   float64 `json:"append_ns_per_op_always"`

	// Full-log replay vs snapshot + empty tail.
	RecoveryReplayMs       float64 `json:"recovery_replay_ms"`
	RecoveryRecordsPerSec  float64 `json:"recovery_records_per_s"`
	RecoverySnapshotMs     float64 `json:"recovery_snapshot_ms"`
	CompactMs              float64 `json:"compact_ms"`
	SnapshotBytes          int64   `json:"snapshot_bytes"`
	RecoveredGraphVertices int     `json:"recovered_graph_vertices"`
	RecoveredGraphEdges    int     `json:"recovered_graph_edges"`
}

// durabilityUpdates synthesizes a mixed insert/delete/vertex stream over
// a mid-sized vertex universe.
func durabilityUpdates(n int) []stream.Update {
	ups := make([]stream.Update, 0, n)
	for i := 0; i < n; i++ {
		v := graph.VertexID(uint32(i*2654435761) % 50000)
		w := graph.VertexID(uint32((i+1)*40503) % 50000)
		l := graph.Label(i % 8)
		switch i % 16 {
		case 0:
			ups = append(ups, stream.DeclareVertex(v, l))
		case 7:
			ups = append(ups, stream.Delete(v, l, w))
		default:
			ups = append(ups, stream.Insert(v, l, w))
		}
	}
	return ups
}

func appendBench(dir string, ups []stream.Update, pol durable.Policy) (nsPerOp float64, walBytes int64, err error) {
	s, err := durable.Open(dir, durable.Options{Fsync: pol})
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for i, u := range ups {
		if _, _, err := s.AppendBatch(ups[i : i+1]); err != nil {
			s.Close() //tf:unchecked-ok already failing
			return 0, 0, err
		}
		u.Apply(s.Graph())
	}
	elapsed := time.Since(start)
	if err := s.Close(); err != nil {
		return 0, 0, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err == nil {
			walBytes += info.Size()
		}
	}
	return float64(elapsed.Nanoseconds()) / float64(len(ups)), walBytes, nil
}

// runDurability measures WAL append throughput and recovery time,
// writing the report to outPath.
func runDurability(outPath string, records int) error {
	rep := durabilityReport{Records: records, SegmentSize: 4 << 20}
	ups := durabilityUpdates(records)

	// Append throughput, fsync=none.
	dirNone, err := os.MkdirTemp("", "tf-durab-none-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dirNone) //tf:unchecked-ok temp cleanup
	if rep.AppendNsPerOpNone, rep.WALBytes, err = appendBench(dirNone, ups, durable.FsyncNone); err != nil {
		return err
	}
	rep.AppendMBPerSecNone = float64(rep.WALBytes) / (rep.AppendNsPerOpNone * float64(records)) * 1e9 / (1 << 20)

	// Append throughput, fsync=interval (the default policy).
	dirInt, err := os.MkdirTemp("", "tf-durab-int-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dirInt) //tf:unchecked-ok temp cleanup
	if rep.AppendNsPerOpInterval, _, err = appendBench(dirInt, ups, durable.FsyncInterval); err != nil {
		return err
	}

	// Append cost, fsync=always, on a reduced stream (one sync per op).
	rep.AlwaysRecords = records / 100
	if rep.AlwaysRecords > 2000 {
		rep.AlwaysRecords = 2000
	}
	dirAlw, err := os.MkdirTemp("", "tf-durab-alw-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dirAlw) //tf:unchecked-ok temp cleanup
	if rep.AppendNsPerOpAlways, _, err = appendBench(dirAlw, ups[:rep.AlwaysRecords], durable.FsyncAlways); err != nil {
		return err
	}

	// Recovery time: full-log replay of the fsync=none store.
	start := time.Now()
	s, err := durable.Open(dirNone, durable.Options{})
	if err != nil {
		return err
	}
	rep.RecoveryReplayMs = float64(time.Since(start).Microseconds()) / 1e3
	rep.RecoveryRecordsPerSec = float64(s.Recovery().Replayed) / (rep.RecoveryReplayMs / 1e3)
	rep.RecoveredGraphVertices = s.Graph().NumVertices()
	rep.RecoveredGraphEdges = s.Graph().NumEdges()

	// Compact, then measure recovery from the snapshot (empty log tail).
	start = time.Now()
	if err := s.Compact(); err != nil {
		return err
	}
	rep.CompactMs = float64(time.Since(start).Microseconds()) / 1e3
	if err := s.Close(); err != nil {
		return err
	}
	entries, err := os.ReadDir(dirNone)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && rep.SnapshotBytes < info.Size() {
			rep.SnapshotBytes = info.Size()
		}
	}
	start = time.Now()
	s2, err := durable.Open(dirNone, durable.Options{})
	if err != nil {
		return err
	}
	rep.RecoverySnapshotMs = float64(time.Since(start).Microseconds()) / 1e3
	if err := s2.Close(); err != nil {
		return err
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("durability: append %0.f ns/op (none), %0.f ns/op (interval), %0.f ns/op (always, n=%d)\n",
		rep.AppendNsPerOpNone, rep.AppendNsPerOpInterval, rep.AppendNsPerOpAlways, rep.AlwaysRecords)
	fmt.Printf("durability: recovery %.1f ms replay (%.0f records/s), %.1f ms from snapshot; report %s\n",
		rep.RecoveryReplayMs, rep.RecoveryRecordsPerSec, rep.RecoverySnapshotMs, outPath)
	return nil
}
