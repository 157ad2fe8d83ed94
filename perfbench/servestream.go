package main

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"pathfinder"
	"pathfinder/internal/core"
	"pathfinder/internal/prefetch"
	"pathfinder/internal/serve"
	"pathfinder/internal/sim"
	"pathfinder/internal/trace"
	"pathfinder/internal/workload"
)

// serveFamilies are the CloudSuite trace families the sessions replay,
// one per session in turn.
var serveFamilies = []string{"cassandra-phase0-core0", "cloud9-phase0-core0", "nutch-phase0-core0"}

// serveShape is the open-loop load: a fixed event rate spread round-robin
// over more sessions than the server's 8 shards and far fewer than its
// 1024-session cap, so no session is ever evicted.
type serveShape struct {
	rate     int // events per second, all sessions together
	sessions int
	events   int // timed events per session
	// windows splits the timed phase into half-second windows of 2500
	// events. The throughput and latency metrics are medians over windows,
	// so that a few stalled moments of a shared host do not decide them.
	windows int
}

// window returns the window of timed event k.
func (s serveShape) window(k int) int { return k * s.windows / (s.events * s.sessions) }

func newServeShape(o options) serveShape {
	s := serveShape{rate: 5000, sessions: 32}
	if o.tiny {
		s = serveShape{rate: 2000, sessions: 10}
	}
	s.events = int(float64(s.rate)*o.seconds) / s.sessions
	if s.events < 1 {
		s.events = 1
	}
	s.windows = int(2*o.seconds + 0.5)
	if s.windows < 1 {
		s.windows = 1
	}
	return s
}

// sessionStream is one session's accesses and the predictions served for
// them. Only the reader goroutine of the session's connection writes it
// while a phase runs.
type sessionStream struct {
	id    uint64
	accs  []trace.Access
	next  int      // index of the next expected reply
	addrs []uint64 // prefetch.Budget slots per access
	n     []uint8  // predictions served per access; badReply marks a reject or mismatch
}

// badReply marks an event whose reply was not a valid prediction for it.
const badReply = 0xff

// clientConn is one loopback connection of the load generator.
type clientConn struct {
	nc       net.Conn
	bw       *bufio.Writer
	wbuf     []byte
	sessions []*sessionStream // sessions routed over this connection
	received atomic.Int64
	rtt      []latHist // due-to-reply latency of timed events, per window
	parse    time.Duration
	done     chan struct{}
}

// servePhase is one server with its sessions created: everything the
// open loop needs.
type servePhase struct {
	srv      *serve.Server
	conns    []*clientConn
	sessions []*sessionStream
	shape    serveShape
	traced   bool
	genCPU   time.Duration // process CPU spent generating the streams
	// t0 is the UnixNano due time of timed event 0; replies to timed
	// events are timed from their own due time, t0 + k/rate.
	t0 atomic.Int64
}

// startServe generates the session streams, starts a default server
// (default-configuration PATHFINDER sessions), dials at most nproc
// connections and creates every session by sending its first access. A
// traced phase also times the client's own sending and parsing.
func startServe(o options, shape serveShape, traced bool) (*servePhase, error) {
	ph := &servePhase{shape: shape, traced: traced}
	sp := startSpan()
	for s := 0; s < shape.sessions; s++ {
		accs, err := workload.Generate(serveFamilies[s%len(serveFamilies)], shape.events+1, o.seed*1000+int64(s))
		if err != nil {
			return nil, err
		}
		ph.sessions = append(ph.sessions, &sessionStream{
			id: uint64(s + 1), accs: accs,
			addrs: make([]uint64, len(accs)*prefetch.Budget),
			n:     make([]uint8, len(accs)),
		})
	}
	ph.genCPU, _ = sp.stop()
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	ph.srv = srv
	nconns := runtime.NumCPU()
	if nconns > shape.sessions {
		nconns = shape.sessions
	}
	for i := 0; i < nconns; i++ {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			ph.close()
			return nil, err
		}
		c := &clientConn{nc: nc, bw: bufio.NewWriterSize(nc, 64<<10), rtt: make([]latHist, shape.windows), done: make(chan struct{})}
		ph.conns = append(ph.conns, c)
		if _, err := c.bw.WriteString(serve.Magic); err != nil {
			ph.close()
			return nil, err
		}
	}
	for s, ss := range ph.sessions {
		c := ph.conns[s%nconns]
		c.sessions = append(c.sessions, ss)
	}
	for _, c := range ph.conns {
		go ph.readLoop(c)
	}
	for s, ss := range ph.sessions {
		if err := ph.send(ph.conns[s%nconns], ss, 0); err != nil {
			ph.close()
			return nil, err
		}
	}
	if err := ph.flush(); err != nil {
		ph.close()
		return nil, err
	}
	if err := ph.await(1); err != nil {
		ph.close()
		return nil, err
	}
	return ph, nil
}

func (ph *servePhase) send(c *clientConn, ss *sessionStream, i int) error {
	c.wbuf = serve.AppendEventFrame(c.wbuf[:0], ss.id, ss.accs[i])
	return serve.WriteFrame(c.bw, c.wbuf)
}

func (ph *servePhase) flush() error {
	for _, c := range ph.conns {
		if err := c.bw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// await waits until every session has its first perSession replies, or
// fails after a generous timeout (a lost reply is a failed check).
func (ph *servePhase) await(perSession int) error {
	deadline := time.Now().Add(30 * time.Second)
	for _, c := range ph.conns {
		want := int64(perSession * len(c.sessions))
		for c.received.Load() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("serve: %d of %d replies after 30s", c.received.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// readLoop records every reply on c until the connection closes.
func (ph *servePhase) readLoop(c *clientConn) {
	defer close(c.done)
	fr := serve.NewFrameReader(c.nc)
	byID := make(map[uint64]*sessionStream, len(c.sessions))
	for _, ss := range c.sessions {
		byID[ss.id] = ss
	}
	interval := int64(time.Second) / int64(ph.shape.rate)
	nsess := int64(len(ph.sessions))
	var f serve.Frame
	for {
		payload, err := fr.Next()
		if err != nil {
			return
		}
		now := time.Now()
		var t0 time.Time
		if ph.traced {
			t0 = now
		}
		err = serve.ParseFrame(payload, &f)
		if ph.traced {
			c.parse += time.Since(t0)
		}
		ss := byID[f.Session]
		switch {
		case err != nil || ss == nil || ss.next >= len(ss.accs):
			// A frame the client cannot attribute: the check fails
			// through the missing reply it stands for.
		case f.Kind != serve.FramePredict || f.ID != ss.accs[ss.next].ID || len(f.Addrs) > prefetch.Budget:
			ss.n[ss.next] = badReply
			ss.next++
		default:
			i := ss.next
			ss.n[i] = uint8(copy(ss.addrs[i*prefetch.Budget:(i+1)*prefetch.Budget], f.Addrs))
			if i > 0 {
				k := int64(i-1)*nsess + int64(ss.id-1)
				due := ph.t0.Load() + k*interval
				c.rtt[ph.shape.window(int(k))].add(time.Duration(now.UnixNano() - due))
			}
			ss.next++
		}
		c.received.Add(1)
	}
}

// openLoop sends every timed event at its due time: events are spread
// round-robin over the sessions at a fixed rate, and on each wakeup the
// pacer sends all events already due, so its own sleep granularity shows
// as lateness rather than as a slower offered rate.
func (ph *servePhase) openLoop() (late latHist, cpuMarks []time.Duration, sendTime time.Duration, err error) {
	nsess := len(ph.sessions)
	total := ph.shape.events * nsess
	interval := time.Second / time.Duration(ph.shape.rate)
	start := time.Now().Add(time.Millisecond)
	ph.t0.Store(start.UnixNano())
	for k := 0; k < total; {
		now := time.Now()
		due := start.Add(time.Duration(k) * interval)
		if now.Before(due) {
			// A raw nanosleep wakes within tens of microseconds; the
			// runtime's timers round short sleeps up to a millisecond,
			// which would dominate the latency being measured.
			ts := syscall.NsecToTimespec(int64(due.Sub(now)))
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep
			continue
		}
		for ; k < total; k++ {
			due := start.Add(time.Duration(k) * interval)
			if due.After(now) {
				break
			}
			if ph.shape.window(k) == len(cpuMarks) {
				cpuMarks = append(cpuMarks, cpuNow())
			}
			late.add(now.Sub(due))
			s := k % nsess
			if err := ph.send(ph.conns[s%len(ph.conns)], ph.sessions[s], k/nsess+1); err != nil {
				return late, cpuMarks, sendTime, err
			}
		}
		if err := ph.flush(); err != nil {
			return late, cpuMarks, sendTime, err
		}
		if ph.traced {
			sendTime += time.Since(now)
		}
	}
	return late, cpuMarks, sendTime, nil
}

// close stops the client connections and the server and waits for every
// goroutine of the phase to end.
func (ph *servePhase) close() {
	for _, c := range ph.conns {
		c.nc.Close()
	}
	for _, c := range ph.conns {
		<-c.done
	}
	if ph.srv != nil {
		ph.srv.Close()
	}
}

// served is what one timed open-loop phase measured.
type served struct {
	cpu, wall time.Duration
	alloc     uint64
	late      latHist
	rtt       []latHist // per window
	rate      []float64 // timed events per process CPU second, per window
	send      time.Duration
	parse     time.Duration
	snap      *pathfinder.TelemetrySnapshot
}

// runPhase runs the open loop over a ready phase, waits for every reply,
// then shuts the phase down.
func runPhase(ph *servePhase) (served, error) {
	var stop func() *pathfinder.TelemetrySnapshot
	if ph.traced {
		stop = telemetry()
	}
	var out served
	a0 := totalAlloc()
	sp := startSpan()
	late, marks, send, err := ph.openLoop()
	if err == nil {
		err = ph.await(ph.shape.events + 1)
	}
	out.cpu, out.wall = sp.stop()
	marks = append(marks, cpuNow())
	out.alloc = totalAlloc() - a0
	if stop != nil {
		out.snap = stop()
	}
	ph.close()
	if err != nil {
		return out, err
	}
	out.late, out.send = late, send
	total := ph.shape.events * len(ph.sessions)
	out.rtt = make([]latHist, ph.shape.windows)
	for w := range out.rtt {
		first, next := (w*total+ph.shape.windows-1)/ph.shape.windows, ((w+1)*total+ph.shape.windows-1)/ph.shape.windows
		out.rate = append(out.rate, float64(next-first)/(marks[w+1]-marks[w]).Seconds())
		for _, c := range ph.conns {
			out.rtt[w].merge(&c.rtt[w])
		}
	}
	for _, c := range ph.conns {
		out.parse += c.parse
	}
	return out, nil
}

// replaySessions is the output check: a fresh default session prefetcher
// per session, fed the same stream directly. Every served prediction must
// equal it. It returns the number of mismatched events, the replay's
// process CPU time, and the replay prefetchers' summed statistics.
func replaySessions(phases []*servePhase) (int, time.Duration, core.Stats, error) {
	var stats core.Stats
	failed := 0
	sp := startSpan()
	for s := range phases[0].sessions {
		ref := phases[0].sessions[s]
		pf, err := serve.DefaultSessionPrefetcher(ref.id)
		if err != nil {
			return 0, 0, stats, err
		}
		for i, a := range ref.accs {
			addrs := pf.Advise(a, prefetch.Budget)
			if len(addrs) > prefetch.Budget {
				addrs = addrs[:prefetch.Budget]
			}
			for _, ph := range phases {
				if !servedEqual(ph.sessions[s], i, addrs) {
					failed++
				}
			}
		}
		st := pf.(*core.Pathfinder).Stats()
		stats.Accesses += st.Accesses
		stats.Queries += st.Queries
		stats.Issued += st.Issued
	}
	cpu, _ := sp.stop()
	return failed, cpu, stats, nil
}

func servedEqual(ss *sessionStream, i int, addrs []uint64) bool {
	if i >= ss.next || int(ss.n[i]) != len(addrs) {
		return false
	}
	for j, a := range addrs {
		if ss.addrs[i*prefetch.Budget+j] != a&^(trace.BlockBytes-1) {
			return false
		}
	}
	return true
}

// servedQuality simulates every session's trace with and without the
// predictions it was served, so the stream has the same quality metrics
// as a cell: how useful the served prefetches were.
func servedQuality(ph *servePhase) (qualityTotals, simTotals, error) {
	var q qualityTotals
	var t simTotals
	for _, ss := range ph.sessions {
		var pfs []trace.Prefetch
		for i, a := range ss.accs {
			for j := 0; j < int(ss.n[i]); j++ {
				pfs = append(pfs, trace.Prefetch{ID: a.ID, Addr: ss.addrs[i*prefetch.Budget+j]})
			}
		}
		cfg := sim.ScaledConfig()
		cfg.Warmup = len(ss.accs) / 10
		base, err := sim.Run(cfg, ss.accs, nil)
		if err != nil {
			return q, t, err
		}
		res, err := sim.Run(cfg, ss.accs, pfs)
		if err != nil {
			return q, t, err
		}
		q.add(res.IPC, base.IPC, res.PrefUseful, res.PrefIssued, base.LLCLoadMisses)
		t.add(res)
	}
	return q, t, nil
}

// runServe is the serve_stream workload: pfserved's default PATHFINDER
// sessions over loopback, driven open-loop at a fixed rate well below
// saturation. The serve layer owns all of its latency, and many
// interleaved SNNs replace the cell's one long-lived network.
func runServe(o options) (outcome, error) {
	shape := newServeShape(o)
	var ph *servePhase
	var setups, gens []float64
	for i := 0; i < setupReps; i++ {
		if ph != nil {
			ph.close()
		}
		sp := startSpan()
		var err error
		ph, err = startServe(o, shape, false)
		c, _ := sp.stop()
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, c.Seconds())
		gens = append(gens, ph.genCPU.Seconds())
	}
	settle()
	phases := []*servePhase{ph}
	untraced, err := runPhase(ph)
	if err != nil {
		return outcome{}, err
	}
	timed := untraced
	if o.traced {
		// The traced phase repeats the untraced one on a fresh server with
		// fresh sessions over the same streams.
		ph2, err := startServe(o, shape, true)
		if err != nil {
			return outcome{}, err
		}
		settle()
		phases = append(phases, ph2)
		if timed, err = runPhase(ph2); err != nil {
			return outcome{}, err
		}
	}

	// In a traced run the replay keeps telemetry on, as the traced phase
	// had it, so the two Advise costs carry the same counter overhead.
	var stop func() *pathfinder.TelemetrySnapshot
	if o.traced {
		stop = telemetry()
	}
	failed, replayCPU, stats, err := replaySessions(phases)
	if stop != nil {
		stop()
	}
	if err != nil {
		return outcome{}, err
	}
	q, t, err := servedQuality(ph)
	if err != nil {
		return outcome{}, err
	}

	events := float64(shape.events * shape.sessions)
	all := float64((shape.events + 1) * shape.sessions)
	out := outcome{
		attempted:   int(all) * len(phases),
		failed:      failed,
		metrics:     map[string]float64{},
		wallOverCPU: ratio(timed.wall.Seconds(), timed.cpu.Seconds()),
	}
	m := out.metrics
	if !o.traced {
		m["setup_s"] = median(setups)
		var lat latSeries
		for w := range untraced.rtt {
			lat.add(&untraced.rtt[w])
		}
		m["accesses_per_cpu_s"] = median(append([]float64(nil), untraced.rate...))
		m["alloc_b_per_access"] = float64(untraced.alloc) / events
		q.into(m)
		m["latency_ms"] = median(append([]float64(nil), lat.p50...))
		out.notes = append(lat.notes(fmt.Sprintf("half-second windows (open loop, %d events/s over %d sessions and %d connections)", shape.rate, shape.sessions, len(ph.conns))),
			fmt.Sprintf("window p50_ms %.3f", lat.p50),
			fmt.Sprintf("window p90_ms %.3f", lat.p90),
			fmt.Sprintf("window events_per_cpu_s %.0f", untraced.rate),
			fmt.Sprintf("generator_late_p99_ms %.4f", untraced.late.quantile(0.99)))
		return out, nil
	}
	// The ledger is per timed event; the direct replay's Advise cost is
	// spread over every event it replayed, session-creating ones included.
	advise := replayCPU.Seconds() / all
	out.layers = ledger{what: "traced event", total: timed.cpu.Seconds() / events, parts: []part{
		{"core.advise", advise},
		{"serve.client_send", timed.send.Seconds() / events},
		{"serve.client_parse", timed.parse.Seconds() / events},
	}}
	m["workload.gen_ns_per_access"] = median(gens) * 1e9 / all
	m["core.advise_ns_per_access"] = advise * 1e9
	m["core.queries_per_access"] = float64(stats.Queries) / all
	m["core.issued_per_access"] = float64(stats.Issued) / all
	snnLayer(timed.snap, m)
	t.into(m)
	m["serve.client_send_ns_per_event"] = out.layers.parts[1].seconds * 1e9
	m["serve.client_parse_ns_per_reply"] = out.layers.parts[2].seconds * 1e9
	m["serve.overhead_ns_per_event"] = out.layers.remainder() * 1e9
	m["serve.remainder_frac"] = out.layers.remainderFrac()
	if h, ok := timed.snap.Histograms["serve.latency_ns"]; ok {
		m["serve.server_latency_p50_ns"] = float64(h.P50)
	}
	m["serve.queue_depth_peak"] = gauge(timed.snap, "serve.queue_depth_peak")
	m["serve.out_depth_peak"] = gauge(timed.snap, "serve.out_depth_peak")
	m["serve.shed"] = counter(timed.snap, "serve.shed")
	m["serve.generator_late_ms"] = timed.late.quantile(0.99)
	m["host.tracing_overhead_frac"] = timed.cpu.Seconds()/untraced.cpu.Seconds() - 1
	return out, nil
}
