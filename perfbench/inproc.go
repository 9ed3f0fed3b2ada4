package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"turboflux"
	"turboflux/internal/core"
	"turboflux/internal/durable"
	"turboflux/internal/graph"
	"turboflux/internal/mqo"
	"turboflux/internal/qlang"
	"turboflux/internal/stream"
)

// g0Graph builds the initial graph exactly as the server does from its
// -graph file.
func g0Graph(in *inputs) *graph.Graph {
	g := graph.New()
	for _, u := range in.g0 {
		u.Apply(g)
	}
	return g
}

// tallySet hands out per-query tallies: watched queries hash every event,
// the rest only count, so the callback cost stays close to the server's.
type tallySet struct {
	watched map[string]bool
	cur     map[string]*qtally // registered queries: counts since registration
	out     *outcome
	seq     *uint64
}

func newTallySet(in *inputs, out *outcome, seq *uint64) *tallySet {
	ts := &tallySet{watched: make(map[string]bool), cur: make(map[string]*qtally), out: out, seq: seq}
	for _, w := range in.watched {
		ts.watched[w] = true
	}
	return ts
}

// hook returns the OnMatch callback for a fresh registration of name.
func (ts *tallySet) hook(name string) func(bool, []graph.VertexID) {
	t := &qtally{}
	ts.cur[name] = t
	if !ts.watched[name] {
		return func(positive bool, _ []graph.VertexID) {
			if positive {
				t.Pos++
			} else {
				t.Neg++
			}
		}
	}
	w := ts.out.tallies[name]
	return func(positive bool, m []graph.VertexID) {
		if positive {
			t.Pos++
		} else {
			t.Neg++
		}
		w.add(*ts.seq, positive, m)
	}
}

func (ts *tallySet) finish() {
	ts.out.final = make(map[string][2]int64, len(ts.cur))
	for name, t := range ts.cur {
		ts.out.final[name] = [2]int64{t.Pos, t.Neg}
	}
}

// meReplay replays the op sequence through the public MultiEngine with
// the server's defaults (fan-out workers = GOMAXPROCS, sharing on).
type meReplay struct {
	m       *turboflux.MultiEngine
	vd, ed  *graph.Dict
	seq     uint64
	tallies *tallySet
	out     *outcome
	applyNs int64
	first   uint64
}

func newMEReplay(in *inputs, name string) *meReplay {
	d := &meReplay{m: turboflux.NewMultiEngine(g0Graph(in)), vd: numericDict(), ed: numericDict()}
	d.out = newOutcome(name, in.watched)
	d.tallies = newTallySet(in, d.out, &d.seq)
	return d
}

func (d *meReplay) register(p pattern) error {
	q, _, err := turboflux.ParseQuery(p.Text, d.vd, d.ed)
	if err != nil {
		return err
	}
	return d.m.Register(p.Name, q, turboflux.Options{OnMatch: d.tallies.hook(p.Name)})
}

func (d *meReplay) unregister(name string) error {
	if !d.m.Unregister(name) {
		return fmt.Errorf("unregister %s: not registered", name)
	}
	delete(d.tallies.cur, name)
	return nil
}

// apply runs one frame; seqs are 1-based global update indices.
func (d *meReplay) apply(first int, ups []stream.Update) error {
	d.first = uint64(first) + 1
	d.seq = d.first
	start := time.Now()
	counts, err := d.m.ApplyBatchFunc(ups, d.boundary)
	d.applyNs += int64(time.Since(start))
	if err != nil {
		return err
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	d.out.frameTotals = append(d.out.frameTotals, total)
	return nil
}

func (d *meReplay) boundary(i int) { d.seq = d.first + uint64(i) + 1 }

// finish records the final per-query counts and releases the engine,
// keeping only the outcome and timings.
func (d *meReplay) finish() {
	d.tallies.finish()
	d.m.Close()
	d.m = nil
}

func (d *meReplay) replayControl(o op) error {
	switch o.kind {
	case opRegister:
		return d.register(o.pat)
	case opUnregister:
		return d.unregister(o.pat.Name)
	}
	return nil
}

// referencePass is the untraced in-process replay: the public
// MultiEngine alone, timed per frame only.
func referencePass(in *inputs, ops []op) (*meReplay, error) {
	d := newMEReplay(in, "reference")
	for _, p := range in.registrations() {
		if err := d.register(p); err != nil {
			return nil, err
		}
	}
	for _, o := range ops {
		var err error
		if o.kind == opFrame {
			err = d.apply(o.first, o.ups)
		} else {
			err = d.replayControl(o)
		}
		if err != nil {
			return nil, err
		}
	}
	d.finish()
	return d, nil
}

// cmember is one registered query in the core-driven replay: a
// shared-member engine that only searches.
type cmember struct {
	name   string
	eng    *core.Engine
	sub    *csub
	labels []bool
}

func (m *cmember) mentions(l graph.Label) bool { return int(l) < len(m.labels) && m.labels[l] }

// csub is one distinct sub-pattern: a maintainer owning the DCG and the
// members replaying against it. Unlike MultiEngine, a single-member
// sub-pattern also gets a maintainer, so maintenance and search are
// always timed apart.
type csub struct {
	key     string
	maint   *core.Engine
	members []*cmember
}

func (s *csub) mentions(l graph.Label) bool {
	for _, m := range s.members {
		if m.mentions(l) {
			return true
		}
	}
	return false
}

// coreReplay replays updates through internal/core the way MultiEngine
// drives promoted sub-patterns: graph write, maintainer transitions, then
// member searches for insertions; member searches, maintainer clearing,
// deferred order checks, then the graph write for deletions.
type coreReplay struct {
	g       *graph.Graph
	vd, ed  *graph.Dict
	tr      *tracer
	subs    []*csub
	byKey   map[string]*csub
	members map[string]*cmember
	seq     uint64
	tallies *tallySet
	out     *outcome
	engaged []*csub

	updates, noops, evals, hits, matches int64
}

func (d *coreReplay) register(p pattern, frame int32) error {
	r := d.tr.begin(spRegister, -1, frame)
	defer d.tr.end(r)
	ps := d.tr.begin(spParse, r, frame)
	q, _, err := qlang.Parse(p.Text, d.vd, d.ed)
	d.tr.end(ps)
	if err != nil {
		return err
	}
	bs := d.tr.begin(spBuild, r, frame)
	defer d.tr.end(bs)
	copt := core.DefaultOptions()
	copt.OnMatch = d.tallies.hook(p.Name)
	tree, err := core.BuildTree(d.g, q, copt)
	if err != nil {
		return err
	}
	key := mqo.KeyOf(q, tree)
	sp := d.byKey[key]
	var eng *core.Engine
	if sp == nil {
		if eng, err = core.NewWithTree(d.g, q, tree, copt, nil); err != nil {
			return err
		}
		eng.ShareDCG()
		sp = &csub{key: key, maint: core.NewMaintainer(eng)}
		d.byKey[key] = sp
		d.subs = append(d.subs, sp)
	} else if eng, err = core.NewWithTree(d.g, q, tree, copt, sp.maint.DCG()); err != nil {
		return err
	} else {
		eng.ShareDCG()
	}
	m := &cmember{name: p.Name, eng: eng, sub: sp}
	for _, e := range q.Edges() {
		for int(e.Label) >= len(m.labels) {
			m.labels = append(m.labels, false)
		}
		m.labels[e.Label] = true
	}
	sp.members = append(sp.members, m)
	d.members[p.Name] = m
	return nil
}

func (d *coreReplay) unregister(name string) error {
	m, ok := d.members[name]
	if !ok {
		return fmt.Errorf("unregister %s: not registered", name)
	}
	delete(d.members, name)
	delete(d.tallies.cur, name)
	sp := m.sub
	for i, x := range sp.members {
		if x == m {
			sp.members = append(sp.members[:i], sp.members[i+1:]...)
			break
		}
	}
	if len(sp.members) == 0 {
		delete(d.byKey, sp.key)
		for i, x := range d.subs {
			if x == sp {
				d.subs = append(d.subs[:i], d.subs[i+1:]...)
				break
			}
		}
	}
	return nil
}

func (d *coreReplay) engage(l graph.Label) []*csub {
	d.engaged = d.engaged[:0]
	for _, sp := range d.subs {
		if sp.mentions(l) {
			d.engaged = append(d.engaged, sp)
		}
	}
	return d.engaged
}

// update replays one update under parent and returns its match count.
func (d *coreReplay) update(u stream.Update, parent, frame int32) (int64, error) {
	d.updates++
	e := u.Edge
	switch u.Op {
	case stream.OpInsert:
		gs := d.tr.begin(spGraph, parent, frame)
		created := !d.g.HasVertex(e.From) || !d.g.HasVertex(e.To)
		ok := d.g.InsertEdge(e.From, e.Label, e.To)
		d.tr.end(gs)
		if created {
			// Every endpoint is declared in g0, so maintainers never need
			// root bookkeeping for a new vertex mid-stream.
			return 0, fmt.Errorf("update %v creates a vertex", u)
		}
		if !ok {
			d.noops++
			return 0, nil
		}
		engaged := d.engage(e.Label)
		ms := d.tr.begin(spMaintain, parent, frame)
		for _, sp := range engaged {
			sp.maint.MaintainInsertedEdge(e.From, e.Label, e.To)
		}
		d.tr.end(ms)
		ss := d.tr.begin(spSearch, parent, frame)
		total, err := d.search(engaged, e, true)
		d.tr.end(ss)
		return total, err
	case stream.OpDelete:
		gs := d.tr.begin(spGraph, parent, frame)
		ok := d.g.HasEdge(e.From, e.Label, e.To)
		d.tr.end(gs)
		if !ok {
			d.noops++
			return 0, nil
		}
		engaged := d.engage(e.Label)
		ss := d.tr.begin(spSearch, parent, frame)
		total, err := d.search(engaged, e, false)
		d.tr.end(ss)
		if err != nil {
			return 0, err
		}
		ms := d.tr.begin(spMaintain, parent, frame)
		for _, sp := range engaged {
			sp.maint.MaintainBeforeDelete(e.From, e.Label, e.To)
		}
		d.tr.end(ms)
		as := d.tr.begin(spSearch, parent, frame)
		for _, sp := range engaged {
			for _, m := range sp.members {
				if m.mentions(e.Label) {
					m.eng.AdjustOrderDeferred()
				}
			}
		}
		d.tr.end(as)
		gs = d.tr.begin(spGraph, parent, frame)
		d.g.DeleteEdge(e.From, e.Label, e.To)
		d.tr.end(gs)
		return total, nil
	}
	return 0, fmt.Errorf("unexpected update %v", u)
}

// search evaluates e on every engaged member whose query mentions its
// label and returns the matches reported.
func (d *coreReplay) search(engaged []*csub, e graph.Edge, insert bool) (int64, error) {
	var total int64
	for _, sp := range engaged {
		for _, m := range sp.members {
			if !m.mentions(e.Label) {
				continue
			}
			var n int64
			var err error
			if insert {
				n, err = m.eng.EvalInsertedEdge(e.From, e.Label, e.To)
			} else {
				n, err = m.eng.EvalBeforeDelete(e.From, e.Label, e.To)
			}
			if err != nil {
				return 0, err
			}
			d.evals++
			if n > 0 {
				d.hits++
			}
			d.matches += n
			total += n
		}
	}
	return total, nil
}

func (d *coreReplay) dcgSize() (edges, bytes int64) {
	for _, sp := range d.subs {
		edges += int64(sp.maint.DCG().NumEdges())
		bytes += sp.maint.IntermediateSizeBytes()
	}
	return edges, bytes
}

// tracedResult is what the traced pass measured.
type tracedResult struct {
	core     *coreReplay
	me       *meReplay
	tr       *tracer
	syncNs   []float64 // one per durable.Store.Sync
	walBytes int64
}

// tracedPass replays the op sequence with a span around every layer
// call, in two sweeps so neither evicts the other's working set from the
// caches: first the request path (stream decode of the exact request
// bytes, durable append and sync on a durable workload, and
// MultiEngine.ApplyBatchFunc), then the core-driven replay split into
// graph write, maintenance and search.
func tracedPass(in *inputs, ops []op, walDir string) (*tracedResult, error) {
	tr := newTracer()
	res := &tracedResult{tr: tr}
	if err := res.requestSweep(in, ops, walDir); err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	if err := res.coreSweep(in, ops); err != nil {
		return nil, err
	}
	return res, nil
}

func (res *tracedResult) requestSweep(in *inputs, ops []op, walDir string) error {
	tr := res.tr
	me := newMEReplay(in, "traced-multiengine")
	res.me = me
	// Every workload journals its frames, so the WAL layer is measured even
	// where the server runs in memory. Only a durable workload journals
	// each frame right before applying it, as its server does; the others
	// journal in a sweep of their own, so the fsyncs do not disturb the
	// MultiEngine timings.
	st, err := durable.Open(walDir, durable.Options{Fsync: durable.FsyncNone, VertexLabels: numericDict(), EdgeLabels: numericDict()})
	if err != nil {
		return err
	}
	defer st.Close()
	for _, p := range in.registrations() {
		if err := me.register(p); err != nil {
			return err
		}
	}
	for fi, o := range ops {
		f := int32(fi)
		if o.kind != opFrame {
			if err := me.replayControl(o); err != nil {
				return err
			}
			continue
		}
		root := tr.begin(spFrame, -1, f)
		ds := tr.begin(spDecode, root, f)
		ups, err := decodeWire(o.wire)
		tr.end(ds)
		if err != nil {
			return err
		}
		if !sameUpdates(ups, o.ups) {
			return fmt.Errorf("frame %d: decoded updates differ from the generated ones", fi)
		}
		if in.spec.Durable {
			if err := res.journal(st, ups, root, f); err != nil {
				return err
			}
		}
		ms := tr.begin(spME, root, f)
		err = me.apply(o.first, ups)
		tr.end(ms)
		if err != nil {
			return err
		}
		tr.end(root)
	}
	me.finish()
	if !in.spec.Durable {
		for fi, o := range ops {
			if o.kind != opFrame {
				continue
			}
			root := tr.begin(spFrame, -1, int32(fi))
			err := res.journal(st, o.ups, root, int32(fi))
			tr.end(root)
			if err != nil {
				return err
			}
		}
	}
	res.walBytes = dirBytes(walDir)
	return nil
}

// journal appends one frame to the WAL and syncs it, as a durable server
// does with -fsync always.
func (res *tracedResult) journal(st *durable.Store, ups []stream.Update, root, f int32) error {
	tr := res.tr
	as := tr.begin(spAppend, root, f)
	_, _, err := st.AppendBatch(ups)
	tr.end(as)
	if err != nil {
		return err
	}
	ss := tr.begin(spSync, root, f)
	err = st.Sync()
	tr.end(ss)
	if err != nil {
		return err
	}
	res.syncNs = append(res.syncNs, float64(tr.spans[ss].end-tr.spans[ss].start))
	return nil
}

func (res *tracedResult) coreSweep(in *inputs, ops []op) error {
	tr := res.tr
	cd := &coreReplay{g: g0Graph(in), vd: numericDict(), ed: numericDict(), tr: tr,
		byKey: make(map[string]*csub), members: make(map[string]*cmember)}
	cd.out = newOutcome("traced-core", in.watched)
	cd.tallies = newTallySet(in, cd.out, &cd.seq)
	res.core = cd
	for _, p := range in.registrations() {
		if err := cd.register(p, -1); err != nil {
			return err
		}
	}
	for fi, o := range ops {
		f := int32(fi)
		switch o.kind {
		case opRegister:
			if err := cd.register(o.pat, f); err != nil {
				return err
			}
			continue
		case opUnregister:
			if err := cd.unregister(o.pat.Name); err != nil {
				return err
			}
			continue
		}
		rs := tr.begin(spReplay, -1, f)
		var total int64
		for i, u := range o.ups {
			cd.seq = uint64(o.first+i) + 1
			n, err := cd.update(u, rs, f)
			if err != nil {
				return err
			}
			total += n
		}
		tr.end(rs)
		cd.out.frameTotals = append(cd.out.frameTotals, total)
	}
	cd.tallies.finish()
	return nil
}

// decodeWire decodes one request as the server's stream layer does: a
// BATCHB body through stream.DecodeBinary, a text update through
// stream.ParseLine.
func decodeWire(wire []byte) ([]stream.Update, error) {
	if len(wire) > 7 && string(wire[:7]) == "BATCHB " {
		nl := 0
		for wire[nl] != '\n' {
			nl++
		}
		body := wire[nl+1:]
		ups := make([]stream.Update, 0, len(body)/4)
		for len(body) > 0 {
			u, used, err := stream.DecodeBinary(body)
			if err != nil {
				return nil, err
			}
			ups = append(ups, u)
			body = body[used:]
		}
		return ups, nil
	}
	u, err := stream.ParseLine(strings.TrimSuffix(string(wire), "\n"))
	if err != nil {
		return nil, err
	}
	return []stream.Update{u}, nil
}

func sameUpdates(a, b []stream.Update) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Op != b[i].Op || a[i].Edge != b[i].Edge {
			return false
		}
	}
	return true
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
