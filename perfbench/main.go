// Command perfbench is the repository's benchmark. It runs one workload
// against the real turboflux-serve binary as its own process, driven by
// one writer and one subscriber connection over loopback, then replays
// the identical requests in-process twice: through an untraced
// MultiEngine (the reference pass) and through a traced pass that times
// each layer's public calls. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}, with the
// end-to-end metrics under --trace 0 and the per-layer metrics under
// --trace 1. Any disagreement between the server and the in-process
// passes exits non-zero.
//
// Usage (from the repository root, after building the server):
//
//	perfbench -server <turboflux-serve binary> -work <scratch dir> \
//	    --workload lsbench-bulk --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"turboflux/internal/server"
)

// setups is how many times each run spawns the server and registers its
// queries; setup_s is their median.
const setups = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	serverBin := flag.String("server", "", "turboflux-serve binary")
	work := flag.String("work", ".bench_build/work", "scratch directory for g0, data dirs and traces")
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed stream")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced pass")
	flag.Parse()
	spec, ok := specByName(*name)
	if !ok || *serverBin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		os.Exit(2)
	}
	if err := run(*serverBin, *work, spec, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(serverBin, work string, spec workloadSpec, seed int64, dur time.Duration, traced bool) error {
	dir, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("%s-%d", spec.Name, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	in, err := generate(spec, seed)
	if err != nil {
		return err
	}
	srv, err := runServer(serverBin, dir, in, dur, setups)
	if err != nil {
		return err
	}
	ref, err := referencePass(in, srv.ops)
	if err != nil {
		return fmt.Errorf("reference pass: %w", err)
	}
	mismatches := compareOutcomes(srv.out, ref.out)
	var tp *tracedResult
	if traced {
		// Return the reference pass's engine to the OS before the traced
		// pass builds its own.
		debug.FreeOSMemory()
		if tp, err = tracedPass(in, srv.ops, filepath.Join(dir, "traced-wal")); err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		mismatches = append(mismatches, compareOutcomes(srv.out, tp.core.out)...)
		mismatches = append(mismatches, compareOutcomes(srv.out, tp.me.out)...)
	}
	mismatches = append(mismatches, srv.problems...)

	res := result{Correct: len(mismatches) == 0, Attempted: srv.attempted, Failed: srv.failed}
	if res.Attempted == 0 {
		mismatches = append(mismatches, "no update was attempted")
		res.Correct = false
	}
	stamp := runStamp(in, seed, dur, srv)
	if traced {
		res.Metrics, err = layerMetrics(spec, srv, ref, tp, stamp)
		if err != nil {
			return err
		}
		tracePath := filepath.Join(filepath.Dir(dir), "trace-"+spec.Name+".csv.gz")
		if err := tp.tr.write(tracePath); err != nil {
			return err
		}
		stamp["trace_file"] = tracePath
		printLayers(tp)
	} else {
		res.Metrics = endToEndMetrics(srv)
	}
	sj, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Println("# stamp " + string(sj))
	for _, m := range mismatches {
		fmt.Println("# MISMATCH " + m)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(rj))
	if !res.Correct {
		return fmt.Errorf("%d correctness mismatches", len(mismatches))
	}
	return nil
}

// endToEndMetrics reports what running the server costs its operator:
// CPU time to set up, CPU time per update and peak memory. These gate
// regressions. setup_s is the server's CPU time from spawn to the last
// set-up ack, the median over the run's set-ups. Wall-clock set-up time,
// latency and throughput are reported with the per-layer metrics
// instead: on a shared two-CPU host the CPU time the hypervisor steals
// swings between 1% and 35% from run to run, and wall-clock figures move
// with it by more than any bound the benchmark may set, while CPU time
// charged to the server does not include it. Blocking (an fsync, a lock,
// a timer) is not charged as CPU time either, so no gate sees it; the
// per-layer server.vcsw_per_update counts it, but it also counts the
// server's idle waits for the next request, which fall as steal rises.
func endToEndMetrics(srv *serverRun) map[string]metric {
	return map[string]metric{
		"setup_s":                  {median(srv.setupCPUS), "s"},
		"server_cpu_us_per_update": {srv.serverCPU * 1e6 / float64(srv.updates), "us"},
		"server_rss_mb":            {srv.rssMB, "MB"},
	}
}

// clientMetrics reports what the client observed over the timed stream.
func clientMetrics(srv *serverRun) map[string]metric {
	return map[string]metric{
		"client.throughput_ups":  {float64(srv.updates) / srv.window.Seconds(), "1/s"},
		"client.ack_p50_us":      {quantile(srv.ackUs, 0.50), "us"},
		"client.ack_p99_us":      {quantile(srv.ackUs, 0.99), "us"},
		"client.notify_p50_us":   {quantile(srv.notifyUs, 0.50), "us"},
		"client.notify_p99_us":   {quantile(srv.notifyUs, 0.99), "us"},
		"client.register_p50_ms": {quantile(srv.registerMs, 0.50), "ms"},
		"client.setup_wall_s":    {median(srv.setupS), "s"},
	}
}

// layerMetrics derives the per-layer metrics from the traced pass, the
// reference pass and the server's STATS counters (deltas over the timed
// stream).
func layerMetrics(spec workloadSpec, srv *serverRun, ref *meReplay, tp *tracedResult, stamp map[string]any) (map[string]metric, error) {
	lt := selfTimes(tp.tr.spans)
	u := float64(srv.updates)
	per := func(ns int64) float64 { return float64(ns) / u }
	before, err := fanoutLine(srv.before)
	if err != nil {
		return nil, err
	}
	after, err := fanoutLine(srv.after)
	if err != nil {
		return nil, err
	}
	d := func(k string) float64 { return after[k] - before[k] }
	cd := tp.core
	dcgEdges, dcgBytes := cd.dcgSize()

	var frameBytes int64
	for _, o := range srv.ops {
		if o.kind == opFrame {
			frameBytes += int64(len(o.wire))
		}
	}
	decode := per(lt.self[spDecode])
	appendNs := per(lt.self[spAppend])
	syncNs := per(lt.self[spSync])
	meNs := per(lt.self[spME])
	graphNs := per(lt.self[spGraph])
	maintNs := per(lt.self[spMaintain])
	searchNs := per(lt.self[spSearch])
	layerSum := decode + meNs
	if spec.Durable {
		layerSum += appendNs + syncNs
	}
	stamp["layer_sum_ns_per_update"] = layerSum
	stamp["client_ns_per_update"] = srv.ackMeanNs
	stamp["layer_sum_within_client_time"] = layerSum <= srv.ackMeanNs
	shares := map[string]float64{}
	for k, v := range map[string]float64{"stream.decode": decode, "durable.append": appendNs, "durable.sync": syncNs,
		"graph.write": graphNs, "core.maintain": maintNs, "core.search": searchNs,
		"multiengine.dispatch": meNs - graphNs - maintNs - searchNs, "server.residual": srv.ackMeanNs - layerSum} {
		shares[k] = v / srv.ackMeanNs
	}
	stamp["layer_share_of_client_time"] = shares

	var syncs []float64
	for _, ns := range tp.syncNs {
		syncs = append(syncs, ns/1e3)
	}
	workers := after["workers"]
	m := map[string]metric{
		"stream.decode_ns_per_update":        {decode, "ns"},
		"stream.request_bytes_per_update":    {float64(frameBytes) / u, "B"},
		"durable.append_ns_per_update":       {appendNs, "ns"},
		"durable.sync_p50_us":                {quantile(syncs, 0.50), "us"},
		"durable.sync_p99_us":                {quantile(syncs, 0.99), "us"},
		"durable.wal_bytes_per_update":       {float64(tp.walBytes) / u, "B"},
		"graph.apply_ns_per_update":          {graphNs, "ns"},
		"graph.noop_frac":                    {float64(cd.noops) / float64(cd.updates), "frac"},
		"multiengine.apply_ns_per_update":    {meNs, "ns"},
		"multiengine.dispatch_ns_per_update": {meNs - graphNs - maintNs - searchNs, "ns"},
		"multiengine.evals_per_update":       {d("evals") / u, "count"},
		"multiengine.skip_frac":              {ratio(d("skipped"), d("evals")+d("skipped")), "frac"},
		"fanout.pooled_frac":                 {ratio(d("pooled"), d("evals")), "frac"},
		"fanout.busy_frac":                   {ratio(d("busy_ns"), workers*float64(srv.window)), "frac"},
		"mqo.subpatterns":                    {float64(srv.after.MQO.SubPatterns), "count"},
		"mqo.shared_subpatterns":             {float64(srv.after.MQO.Shared), "count"},
		"mqo.saved_evals_per_update":         {float64(srv.after.MQO.SavedEvals-srv.before.MQO.SavedEvals) / u, "count"},
		"mqo.replays_per_update":             {float64(srv.after.MQO.SharedReplays-srv.before.MQO.SharedReplays) / u, "count"},
		"core.maintain_ns_per_update":        {maintNs, "ns"},
		"dcg.bytes":                          {float64(dcgBytes), "B"},
		"dcg.edges":                          {float64(dcgEdges), "count"},
		"core.search_ns_per_update":          {searchNs, "ns"},
		"core.matches_per_update":            {float64(cd.matches) / float64(cd.updates), "count"},
		"core.eval_hit_frac":                 {ratio(float64(cd.hits), float64(cd.evals)), "frac"},
		"core.build_ms_per_query":            {ratio(float64(lt.total[spBuild]), float64(lt.count[spBuild])) / 1e6, "ms"},
		"qlang.parse_us_per_query":           {ratio(float64(lt.total[spParse]), float64(lt.count[spParse])) / 1e3, "us"},
		"server.bootstrap_s":                 {median(srv.bootstrapS), "s"},
		"server.events_per_update":           {float64(srv.events) / u, "count"},
		"server.event_bytes_per_update":      {float64(srv.eventBytes) / u, "B"},
		"server.sub_max_depth":               {subMaxDepth(srv.after), "count"},
		"server.residual_ns_per_update":      {srv.ackMeanNs - layerSum, "ns"},
		"server.vcsw_per_update":             {float64(srv.serverVcsw) / u, "count"},
		"server.failed_frac":                 {ratio(float64(srv.failed), float64(srv.attempted)), "frac"},
		"gen.late_p99_us":                    {quantile(srv.lateUs, 0.99), "us"},
		"trace.overhead_frac":                {float64(tp.me.applyNs)/float64(ref.applyNs) - 1, "frac"},
	}
	for k, v := range clientMetrics(srv) {
		m[k] = v
	}
	return m, nil
}

// fanoutLine parses the STATS "fanout k=v ..." line.
func fanoutLine(st server.StatsInfo) (map[string]float64, error) {
	for _, line := range st.Raw {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "fanout" {
			continue
		}
		out := make(map[string]float64)
		for _, kv := range f[1:] {
			k, v, _ := strings.Cut(kv, "=")
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("bad fanout field %q", kv)
			}
			out[k] = x
		}
		return out, nil
	}
	return nil, fmt.Errorf("STATS has no fanout line")
}

// runStamp records what produced the numbers.
func runStamp(in *inputs, seed int64, dur time.Duration, srv *serverRun) map[string]any {
	spec := in.spec
	fo, _ := fanoutLine(srv.after)
	s := map[string]any{
		"workload":             spec,
		"seed":                 seed,
		"seconds":              dur.Seconds(),
		"commit":               commit(),
		"source_sha256":        sourceDigest(),
		"nproc":                runtime.NumCPU(),
		"bench_gomaxprocs":     runtime.GOMAXPROCS(0),
		"server_gomaxprocs":    fo["workers"], // -fanout-workers 0 sizes the pool to the server's GOMAXPROCS
		"go_version":           runtime.Version(),
		"server_flags":         srv.flags,
		"setups":               setups,
		"setup_cpu_s":          srv.setupCPUS,
		"setup_wall_s":         srv.setupS,
		"query_seed":           querySeed,
		"planned_updates":      srv.planned,
		"capped":               srv.capped,
		"updates":              srv.updates,
		"events":               srv.events,
		"frames":               len(srv.out.frameTotals),
		"ack_samples":          len(srv.ackUs),
		"notify_samples":       len(srv.notifyUs),
		"register_samples":     len(srv.registerMs),
		"loop":                 "closed, one request outstanding",
		"generator_behind":     false,
		"client_ns_per_update": srv.ackMeanNs,
		"forced_deletions":     in.gen.forced,
		"host_steal_frac":      srv.stealFrac,
		"bench_rss_mb":         selfPeakRSSMB(),
	}
	if in.gen.forced > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: WARNING the insert pool ran dry; %d deletions were forced\n", in.gen.forced)
	}
	if srv.capped {
		fmt.Fprintf(os.Stderr, "perfbench: WARNING the closed loop hit its time cap; %d of %d planned updates were not acknowledged\n", srv.planned-srv.updates, srv.planned)
	}
	if spec.Open {
		s["loop"] = fmt.Sprintf("open, %.0f updates/s, latency from due time", spec.Rate)
		// The generator fell behind when more than 1% of sends left later
		// than half an interval after their due time.
		interval := 1e6 / spec.Rate
		late := quantile(srv.lateUs, 0.99)
		s["gen_late_p99_us"] = late
		if late > interval/2 {
			s["generator_behind"] = true
			fmt.Fprintf(os.Stderr, "perfbench: WARNING generator fell behind: late p99 %.0fus > %.0fus\n", late, interval/2)
		}
	}
	return s
}

// commit names the checked-out commit when the working directory is a git
// work tree, else "unknown" (the benchmark may run from an exported
// tree; source_sha256 then identifies the code).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and module files under the working
// directory, skipping build output.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	filepath.Walk(".", func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return nil
		}
		if fi.IsDir() && strings.HasPrefix(fi.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") || fi.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, f)
		io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// printLayers prints the traced pass's per-layer totals and self times as
// comment lines.
func printLayers(tp *tracedResult) {
	lt := selfTimes(tp.tr.spans)
	fmt.Println("# layer            calls       total_ms      self_ms")
	for i := uint8(0); i < numSpanNames; i++ {
		fmt.Printf("# %-16s %8d %12.3f %12.3f\n", spanNames[i], lt.count[i], float64(lt.total[i])/1e6, float64(lt.self[i])/1e6)
	}
}

// selfPeakRSSMB is this process's peak resident set size (VmHWM).
func selfPeakRSSMB() float64 {
	mb, _ := peakRSSMB(os.Getpid())
	return mb
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation (0 for no
// samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
