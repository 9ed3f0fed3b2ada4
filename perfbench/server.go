package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"turboflux/internal/graph"
	"turboflux/internal/server"
	"turboflux/internal/stream"
)

// ioTimeout bounds every blocking read or write on a connection, so a
// hung server fails the run instead of stalling it.
const ioTimeout = 60 * time.Second

// serverProc is one spawned turboflux-serve process.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{}
}

// spawnServer starts the server and waits for its "# serving on" line.
func spawnServer(bin string, args []string, logPath string) (*serverProc, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer log.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = log
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	p := &serverProc{cmd: cmd, drained: make(chan struct{})}
	br := bufio.NewReader(out)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			p.kill()
			return nil, fmt.Errorf("server exited before serving: %w", err)
		}
		if rest, ok := strings.CutPrefix(line, "# serving on "); ok {
			p.addr, _, _ = strings.Cut(rest, " ")
			break
		}
	}
	// Keep draining stdout so the server never blocks on a full pipe.
	go func() {
		io.Copy(io.Discard, br)
		close(p.drained)
	}()
	return p, nil
}

// stop shuts the server down gracefully and waits for it to exit.
func (p *serverProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() {
		<-p.drained
		done <- p.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("server did not shut down within 30s")
	}
}

func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// threadSums adds up, over the server's threads, the CPU time each has
// run (nanoseconds, from /proc/<pid>/task/<tid>/schedstat) and its
// voluntary context switches (from .../status): the times a thread
// blocked on I/O, a lock, a timer or an idle wait. CPU time the
// hypervisor steals from the host is not charged to a thread, and the
// Go runtime keeps its threads for the life of the process, so the sums
// only grow.
func (p *serverProc) threadSums() (cpuNs, vcsw int64, err error) {
	dir := fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid)
	tids, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, t := range tids {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, 0, err
		}
		cpuNs += ns
		b, err = os.ReadFile(dir + "/" + t.Name() + "/status")
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "voluntary_ctxt_switches:"); ok {
				n, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
				if err != nil {
					return 0, 0, err
				}
				vcsw += n
			}
		}
	}
	return cpuNs, vcsw, nil
}

// peakRSSMB reads the server's peak resident set size (VmHWM).
func (p *serverProc) peakRSSMB() (float64, error) { return peakRSSMB(p.cmd.Process.Pid) }

func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// lineConn is one client connection of the line protocol.
type lineConn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func dial(addr string) (*lineConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &lineConn{c: c, r: bufio.NewReaderSize(c, 1<<16), w: bufio.NewWriterSize(c, 1<<16)}, nil
}

func (l *lineConn) readLine() (string, error) {
	l.c.SetReadDeadline(time.Now().Add(ioTimeout))
	s, err := l.r.ReadString('\n')
	return strings.TrimSuffix(s, "\n"), err
}

func (l *lineConn) send(b []byte) error {
	l.c.SetWriteDeadline(time.Now().Add(ioTimeout))
	_, err := l.w.Write(b)
	return err
}

func (l *lineConn) flush() error {
	l.c.SetWriteDeadline(time.Now().Add(ioTimeout))
	return l.w.Flush()
}

// call sends one request and returns its one-line reply; "-ERR" replies
// are errors.
func (l *lineConn) call(req string) (string, error) {
	if err := l.send([]byte(req + "\n")); err != nil {
		return "", err
	}
	if err := l.flush(); err != nil {
		return "", err
	}
	line, err := l.readLine()
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(line, "+OK") {
		return "", fmt.Errorf("%s: %s", strings.Fields(req)[0], line)
	}
	return line, nil
}

func (l *lineConn) stats() (server.StatsInfo, error) {
	if err := l.send([]byte("STATS\n")); err != nil {
		return server.StatsInfo{}, err
	}
	if err := l.flush(); err != nil {
		return server.StatsInfo{}, err
	}
	head, err := l.readLine()
	if err != nil {
		return server.StatsInfo{}, err
	}
	n, err := strconv.Atoi(strings.TrimPrefix(head, "+DATA "))
	if err != nil {
		return server.StatsInfo{}, fmt.Errorf("STATS: bad header %q", head)
	}
	lines := make([]string, n)
	for i := range lines {
		if lines[i], err = l.readLine(); err != nil {
			return server.StatsInfo{}, err
		}
	}
	return server.ParseStats(lines)
}

// subMaxDepth is the deepest any subscription queue has been.
func subMaxDepth(st server.StatsInfo) float64 {
	var m float64
	for _, line := range st.Raw {
		if !strings.HasPrefix(line, "sub ") {
			continue
		}
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, "max_depth="); ok {
				d, _ := strconv.ParseFloat(v, 64)
				m = max(m, d)
			}
		}
	}
	return m
}

// arrival is one *EVENT line: its update's sequence number (relative to
// the run's first update) and when it arrived.
type arrival struct {
	seq uint64
	at  time.Duration
}

// subscriber reads the subscriber connection until it closes.
type subscriber struct {
	lc       *lineConn
	base     uint64
	origin   time.Time
	out      *outcome
	arrivals []arrival
	bytes    int64
	events   atomic.Int64
	evicted  []string
	badLines []string
	err      error
	done     chan struct{}
}

func (s *subscriber) run() {
	defer close(s.done)
	var mapping []graph.VertexID
	for {
		s.lc.c.SetReadDeadline(time.Time{})
		line, err := s.lc.r.ReadSlice('\n')
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.err = err
			}
			return
		}
		at := time.Since(s.origin)
		s.bytes += int64(len(line))
		switch {
		case bytes.HasPrefix(line, []byte("*EVENT ")):
			var ok bool
			if mapping, ok = s.event(line, at, mapping); !ok {
				s.badLines = append(s.badLines, string(line))
			}
		case bytes.HasPrefix(line, []byte("*EVICTED ")):
			s.evicted = append(s.evicted, string(line))
		}
	}
}

// event records one "*EVENT <query> <seq> <+|-> <v>..." line, parsing
// it in place: at tens of thousands of events a second the subscriber
// shares the host's CPUs with the server.
func (s *subscriber) event(line []byte, at time.Duration, mapping []graph.VertexID) ([]graph.VertexID, bool) {
	rest := bytes.TrimRight(line[len("*EVENT "):], "\r\n")
	name, rest, ok := bytes.Cut(rest, []byte(" "))
	if !ok {
		return mapping, false
	}
	t := s.out.tallies[string(name)]
	seqField, rest, ok := bytes.Cut(rest, []byte(" "))
	seq, okSeq := parseUint(seqField)
	if t == nil || !ok || !okSeq || seq <= s.base || len(rest) == 0 || (rest[0] != '+' && rest[0] != '-') {
		return mapping, false
	}
	positive := rest[0] == '+'
	mapping = mapping[:0]
	for vs := rest[1:]; len(vs) > 0; {
		if vs[0] != ' ' {
			return mapping, false
		}
		vs = vs[1:]
		i := bytes.IndexByte(vs, ' ')
		if i < 0 {
			i = len(vs)
		}
		x, ok := parseUint(vs[:i])
		if !ok {
			return mapping, false
		}
		mapping = append(mapping, graph.VertexID(x))
		vs = vs[i:]
	}
	rel := seq - s.base
	t.add(rel, positive, mapping)
	s.arrivals = append(s.arrivals, arrival{seq: rel, at: at})
	s.events.Add(1)
	return mapping, true
}

func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var x uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		x = x*10 + uint64(c-'0')
	}
	return x, true
}

// serverRun is what the client observed.
type serverRun struct {
	setupCPUS  []float64 // per set-up: server CPU seconds from spawn to the last set-up ack
	setupS     []float64 // per set-up: wall-clock seconds, the same span
	bootstrapS []float64
	ops        []op
	out        *outcome
	window     time.Duration
	updates    int64 // acknowledged
	attempted  int64
	failed     int64
	ackUs      []float64 // per request, from send (closed loop) or due (open loop)

	ackMeanNs  float64 // mean per-update ack time: frame latency / frame size, from send or due
	stealFrac  float64 // share of the host's CPU time the hypervisor stole during the stream
	serverCPU  float64 // server CPU seconds spent during the timed stream
	serverVcsw int64   // server voluntary context switches during the timed stream
	planned    int64   // updates the run was sized to send
	capped     bool    // the closed loop hit its time cap before sending them all
	notifyUs   []float64
	registerMs []float64 // REGISTER round trips of the DCG-building churn query
	lateUs     []float64 // open loop: send time - due time; closed loop: previous reply - this send
	eventBytes int64
	events     int64
	rssMB      float64
	before     server.StatsInfo
	after      server.StatsInfo
	flags      []string
	problems   []string
}

// serverArgs returns the server's flags: its shipped defaults plus the
// workload's durability flags.
func serverArgs(in *inputs, g0Path, dataDir string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-numeric-labels", "-graph", g0Path}
	if in.spec.Durable {
		args = append(args, "-data-dir", dataDir, "-fsync", "always")
	}
	return args
}

// session is one spawned server with its registered queries and the
// benchmark's two connections.
type session struct {
	p        *serverProc
	w, sub   *lineConn
	base     uint64 // sequence number before the first streamed update
	setup    time.Duration
	setupCPU time.Duration
	boot     time.Duration
}

// close drops both connections and shuts the server down.
func (s *session) close() error {
	s.w.c.Close()
	s.sub.c.Close()
	return s.p.stop()
}

// setup spawns a server, registers every query on the writer connection
// and subscribes the watched ones on the subscriber connection.
func setup(bin string, in *inputs, args []string, logPath string) (*session, error) {
	t0 := time.Now()
	p, err := spawnServer(bin, args, logPath)
	if err != nil {
		return nil, err
	}
	s := &session{p: p, boot: time.Since(t0)}
	if err := s.prepare(in); err != nil {
		if s.w != nil {
			s.w.c.Close()
		}
		if s.sub != nil {
			s.sub.c.Close()
		}
		p.kill()
		return nil, err
	}
	s.setup = time.Since(t0)
	cpuNs, _, err := p.threadSums()
	if err != nil {
		s.close()
		return nil, err
	}
	s.setupCPU = time.Duration(cpuNs)
	return s, nil
}

func (s *session) prepare(in *inputs) error {
	var err error
	if s.w, err = dial(s.p.addr); err != nil {
		return err
	}
	if s.sub, err = dial(s.p.addr); err != nil {
		return err
	}
	for _, q := range in.registrations() {
		if _, err := s.w.call("REGISTER " + q.Name + " " + q.Text); err != nil {
			return err
		}
	}
	for _, name := range in.watched {
		reply, err := s.sub.call("SUBSCRIBE " + name)
		if err != nil {
			return err
		}
		if s.base, err = strconv.ParseUint(strings.TrimPrefix(reply, "+OK "), 10, 64); err != nil {
			return fmt.Errorf("SUBSCRIBE: bad reply %q", reply)
		}
	}
	return nil
}

// runServer performs the set-ups and the timed stream against the real
// server binary. Every set-up but the last is shut down again; the last
// serves the stream.
func runServer(bin, work string, in *inputs, dur time.Duration, setups int) (*serverRun, error) {
	g0Path := work + "/g0.txt"
	if err := writeG0(g0Path, in); err != nil {
		return nil, err
	}
	res := &serverRun{out: newOutcome("server", in.watched)}
	var s *session
	for i := 0; i < setups; i++ {
		dataDir := fmt.Sprintf("%s/data-%d", work, i)
		res.flags = serverArgs(in, g0Path, dataDir)
		var err error
		if s, err = setup(bin, in, res.flags, fmt.Sprintf("%s/server-%d.log", work, i)); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		res.setupS = append(res.setupS, s.setup.Seconds())
		res.setupCPUS = append(res.setupCPUS, s.setupCPU.Seconds())
		res.bootstrapS = append(res.bootstrapS, s.boot.Seconds())
		if i < setups-1 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("stopping set-up server %d: %w", i, err)
			}
		}
	}
	defer s.p.kill()
	w, base := s.w, s.base

	// Rate x dur updates: the amount of work is fixed by the spec and the
	// seed, never by how fast the server is.
	frames := math.Ceil(in.spec.Rate * dur.Seconds() / float64(max(in.spec.Frame, 1)))
	planned, err := plan(in, int(frames))
	if err != nil {
		return nil, err
	}
	for _, o := range planned {
		res.planned += int64(len(o.ups))
	}
	if res.before, err = w.stats(); err != nil {
		return nil, err
	}
	cpu0, vcsw0, err := s.p.threadSums()
	if err != nil {
		return nil, err
	}
	steal0, total0 := cpuSteal()
	origin := time.Now()
	sub := &subscriber{lc: s.sub, base: base, origin: origin, out: res.out, done: make(chan struct{})}
	go sub.run()
	defer func() {
		s.sub.c.Close()
		<-sub.done
	}()

	var frameRef []time.Duration // per frame: send (closed) or due (open) time
	if in.spec.Open {
		err = openLoop(w, planned, res, origin, in.spec.Rate, base, &frameRef)
	} else {
		err = closedLoop(w, planned, res, origin, 2*dur, base, &frameRef)
	}
	if err != nil {
		return nil, err
	}

	if steal1, total1 := cpuSteal(); total1 > total0 {
		res.stealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	cpu1, vcsw1, err := s.p.threadSums()
	if err != nil {
		return nil, err
	}
	res.serverCPU = float64(cpu1-cpu0) / 1e9
	res.serverVcsw = vcsw1 - vcsw0
	if res.after, err = w.stats(); err != nil {
		return nil, err
	}
	want := int64(res.after.Events - res.before.Events)
	deadline := time.Now().Add(20 * time.Second)
	for sub.events.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if res.rssMB, err = s.p.peakRSSMB(); err != nil {
		return nil, err
	}
	if err := s.close(); err != nil {
		return nil, err
	}
	<-sub.done
	if sub.err != nil {
		return nil, fmt.Errorf("subscriber: %w", sub.err)
	}
	res.events = sub.events.Load()
	res.eventBytes = sub.bytes
	if res.events != want {
		res.problems = append(res.problems, fmt.Sprintf("subscriber received %d events, server enqueued %d", res.events, want))
	}
	if len(sub.evicted) > 0 || len(sub.badLines) > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d evictions, %d malformed event lines", len(sub.evicted), len(sub.badLines)))
	}
	lost := int64(res.after.Dropped-res.before.Dropped) + int64(res.after.Evicted-res.before.Evicted) + max(0, want-res.events)
	res.failed += lost

	// Notify latency: each event against its update's request time.
	firsts := make([]int, 0, len(frameRef))
	for _, o := range res.ops {
		if o.kind == opFrame {
			firsts = append(firsts, o.first)
		}
	}
	for _, a := range sub.arrivals {
		idx := int(a.seq) - 1
		f := sort.Search(len(firsts), func(i int) bool { return firsts[i] > idx }) - 1
		if f < 0 || f >= len(frameRef) {
			res.problems = append(res.problems, fmt.Sprintf("event for unknown update %d", a.seq))
			break
		}
		res.notifyUs = append(res.notifyUs, float64(a.at-frameRef[f])/1e3)
	}
	res.out.final = make(map[string][2]int64)
	for _, q := range res.after.Queries {
		res.out.final[q.Name] = [2]int64{q.Pos, q.Neg}
	}
	return res, nil
}

// plan generates a run's requests up front: the given number of update
// frames, with the churn requests between them.
func plan(in *inputs, frames int) ([]op, error) {
	src := newOpSource(in)
	var planned []op
	for frames > 0 {
		o, err := src.next()
		if err != nil {
			return nil, err
		}
		planned = append(planned, o)
		if o.kind == opFrame {
			frames--
		}
	}
	return planned, nil
}

// closedLoop sends one request at a time and waits for its reply, until
// every planned request is answered or limit has passed. The updates it
// had no time to send count as attempted and failed. The generator's
// lateness is its own turnaround: from one reply to the next send.
func closedLoop(w *lineConn, planned []op, res *serverRun, origin time.Time, limit time.Duration, base uint64, frameRef *[]time.Duration) error {
	var last, busy time.Duration
	for i, o := range planned {
		if time.Since(origin) >= limit {
			res.capped = true
			for _, rest := range planned[i:] {
				res.attempted += int64(len(rest.ups))
				res.failed += int64(len(rest.ups))
			}
			break
		}
		sent := time.Since(origin)
		res.lateUs = append(res.lateUs, float64(sent-last)/1e3)
		if err := w.send(o.wire); err != nil {
			return err
		}
		if err := w.flush(); err != nil {
			return err
		}
		reply, err := w.readLine()
		if err != nil {
			return err
		}
		last = time.Since(origin)
		res.ops = append(res.ops, o)
		if o.kind == opFrame {
			*frameRef = append(*frameRef, sent)
			busy += last - sent
		}
		if err := res.reply(o, reply, base, sent, last, sent); err != nil {
			return err
		}
	}
	res.window = last
	if res.updates > 0 {
		res.ackMeanNs = float64(busy) / float64(res.updates)
	}
	return nil
}

// reqRec is one pipelined request awaiting its reply.
type reqRec struct {
	o    op
	due  time.Duration
	sent time.Duration
}

// openLoop sends updates on a fixed schedule regardless of replies; a
// separate goroutine reads the replies, which arrive in request order.
func openLoop(w *lineConn, planned []op, res *serverRun, origin time.Time, rate float64, base uint64, frameRef *[]time.Duration) error {
	interval := time.Duration(float64(time.Second) / rate)
	// Sized to the whole run's requests so the sender never blocks on the
	// reader, whatever the server's backlog.
	recs := make(chan reqRec, len(planned))
	var sendErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(recs)
		sendErr = paceSends(w, planned, recs, origin, interval)
	}()
	var last time.Duration
	var latSum float64
	var readErr error
	for r := range recs {
		if readErr != nil {
			continue
		}
		reply, err := w.readLine()
		if err != nil {
			readErr = err
			continue
		}
		last = time.Since(origin)
		res.ops = append(res.ops, r.o)
		if r.o.kind == opFrame {
			*frameRef = append(*frameRef, r.due)
			res.lateUs = append(res.lateUs, float64(r.sent-r.due)/1e3)
			latSum += float64(last-r.due) * float64(len(r.o.ups))
		}
		if err := res.reply(r.o, reply, base, r.sent, last, r.due); err != nil {
			readErr = err
		}
	}
	wg.Wait()
	if sendErr != nil {
		return sendErr
	}
	if readErr != nil {
		return readErr
	}
	res.window = last
	if res.updates > 0 {
		res.ackMeanNs = latSum / float64(res.updates)
	}
	return nil
}

// paceSends writes frame k at origin + k*interval, sleeping in the
// kernel (finer-grained than the Go timer) and flushing only when caught
// up, so a stall delays later sends without dropping them. Control
// requests go out right before the frame that follows them.
func paceSends(w *lineConn, planned []op, recs chan<- reqRec, origin time.Time, interval time.Duration) error {
	const slack = 60 * time.Microsecond // nanosleep overshoot on Linux
	k := 0
	for _, o := range planned {
		due := time.Duration(k) * interval
		if wait := due - time.Since(origin); wait > 0 {
			if err := w.flush(); err != nil {
				return err
			}
			if wait > slack {
				ts := syscall.NsecToTimespec(int64(wait - slack))
				syscall.Nanosleep(&ts, nil)
			}
			for time.Since(origin) < due {
			}
		}
		sent := time.Since(origin)
		if o.kind == opFrame {
			k++
		} else {
			due = sent
		}
		recs <- reqRec{o: o, due: due, sent: sent}
		if err := w.send(o.wire); err != nil {
			return err
		}
	}
	return w.flush()
}

// reply checks one reply and records its latency from ref.
func (res *serverRun) reply(o op, reply string, base uint64, sent, at, ref time.Duration) error {
	switch o.kind {
	case opFrame:
		n := int64(len(o.ups))
		res.attempted += n
		if !strings.HasPrefix(reply, "+OK ") {
			res.failed += n
			res.out.frameTotals = append(res.out.frameTotals, -1)
			res.problems = append(res.problems, "frame rejected: "+reply)
			return nil
		}
		f := strings.Fields(reply)
		if len(f) < 3 {
			return fmt.Errorf("bad ack %q", reply)
		}
		seq, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil || seq-base != uint64(o.first)+1 {
			return fmt.Errorf("ack %q for update %d (base %d)", reply, o.first+1, base)
		}
		var total int64
		if o.wire[0] == 'B' { // "+OK <seq> <n> <total>"
			if len(f) != 4 || f[2] != strconv.Itoa(len(o.ups)) {
				return fmt.Errorf("bad batch ack %q", reply)
			}
			total, err = strconv.ParseInt(f[3], 10, 64)
		} else { // "+OK <seq> <total> [name=n ...]"
			total, err = strconv.ParseInt(f[2], 10, 64)
		}
		if err != nil {
			return fmt.Errorf("bad ack %q", reply)
		}
		res.out.frameTotals = append(res.out.frameTotals, total)
		res.updates += n
		res.ackUs = append(res.ackUs, float64(at-ref)/1e3)
	case opRegister, opUnregister:
		if reply != "+OK" {
			return fmt.Errorf("%s %s: %s", strings.Fields(string(o.wire))[0], o.pat.Name, reply)
		}
		if o.kind == opRegister && o.pat.Name == "churn0" {
			res.registerMs = append(res.registerMs, float64(at-sent)/1e6)
		}
	}
	return nil
}

// cpuSteal reads the host-wide stolen and total CPU jiffies from
// /proc/stat (zeros where it is unreadable).
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, _ := strconv.ParseUint(v, 10, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// writeG0 writes the initial graph in the stream text format.
func writeG0(path string, in *inputs) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := stream.Encode(f, in.g0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
