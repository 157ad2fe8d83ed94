// Package fault is a deterministic, seeded fault-injection framework for
// the evaluation engine. The runner calls a configured Injector at a small
// set of fault sites (trace decode, job start, baseline, prefetch-file
// generation, the timed replay); the injector may fail the site with a
// permanent or transient error, panic, or stall the caller — everything a
// long sweep meets in production, but reproducible.
//
// Determinism contract: the shipped Seeded injector decides every fault
// from a hash of (seed, fault kind, site key) only — never from wall time,
// scheduling order, or global state — so the set of injected faults is
// identical for any worker count. The chaos suite in internal/runner
// relies on this to assert that surviving results are bit-identical to a
// fault-free run at any parallelism.
//
// The default is no injector at all: the runner guards every site with a
// single nil-check, so production runs pay nothing.
package fault

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Site identifies where in the evaluation pipeline a fault is injected.
type Site uint8

const (
	// SiteJobStart fires once per evaluation attempt, before any work.
	// Panics and transient "flaky" failures are injected here.
	SiteJobStart Site = iota
	// SiteTraceDecode fires where a job's trace is acquired. For traces
	// the runner generates by name it fires inside the shared build,
	// keyed by the trace cache key, so a faulted trace fails every cell
	// that needs it, deterministically; for Source jobs it fires once per
	// attempt, keyed by the cell key. Accs jobs acquire nothing.
	SiteTraceDecode
	// SiteBaseline fires before the no-prefetch baseline simulation.
	SiteBaseline
	// SitePrefetchGen fires before prefetch-file generation.
	SitePrefetchGen
	// SiteSimulate fires before the timed replay. Hangs and benign
	// latency are injected here (per cell, after the shared builds, so
	// they cannot make fault placement schedule-dependent).
	SiteSimulate
	// SiteServe fires in the serving daemon's session workers, once per
	// accepted event (keyed "session/id"). Hangs and latency injected
	// here delay predictions — exercising backpressure and drain — but
	// never change them.
	SiteServe
	// SiteDistConn fires on the distributed sweep's wire, once per frame
	// write (keyed by the peer/stream identity). Drops sever the
	// connection (ErrConnDrop), hangs stall the write, latency delays it
	// — exercising lease expiry and reassignment without touching any
	// cell's result.
	SiteDistConn
	// SiteDistWorker fires in a sweep worker mid-cell, keyed
	// "cellkey#attempt", and kills the worker (ErrWorkerKill): the
	// coordinator must expire the lease and reassign. Keying by attempt
	// lets a reassigned cell survive its next grant, so the expected
	// quarantine set stays predicate-computable.
	SiteDistWorker
)

// String names the site for error messages and logs.
func (s Site) String() string {
	switch s {
	case SiteJobStart:
		return "job-start"
	case SiteTraceDecode:
		return "trace-decode"
	case SiteBaseline:
		return "baseline"
	case SitePrefetchGen:
		return "prefetch-gen"
	case SiteSimulate:
		return "simulate"
	case SiteServe:
		return "serve"
	case SiteDistConn:
		return "dist-conn"
	case SiteDistWorker:
		return "dist-worker"
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// Injector decides, per (site, key, attempt), whether to inject a fault.
// Inject may return an error (wrap it with Transient to make the runner
// retry), panic (converted by the runner into a typed JobError), or sleep
// — honouring ctx — to simulate a hang. A nil return means the site
// proceeds normally.
type Injector interface {
	Inject(ctx context.Context, site Site, key string, attempt int) error
}

// ErrConnDrop is the cause returned from SiteDistConn when the injector
// severs a distributed-sweep connection. The framing layer surfaces it as
// a closed stream; the coordinator treats it like any peer death.
var ErrConnDrop = errors.New("fault: injected connection drop")

// ErrWorkerKill is the cause returned from SiteDistWorker when the
// injector kills a sweep worker mid-cell. Workers translate it into an
// abrupt exit (connection close or silent abandonment) rather than an
// error reply, so the coordinator only learns via lease expiry.
var ErrWorkerKill = errors.New("fault: injected worker kill")

// transientError marks an error as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// Transient wraps err so IsTransient reports true: the failure is expected
// to clear on retry (a flaky I/O path, a momentary resource shortage) as
// opposed to a deterministic one (a panic from the same seed will panic
// again).
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err}
}

// IsTransient reports whether err (or anything it wraps) is marked
// transient via Transient or its own `Transient() bool` method.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// Chaos configures the Seeded injector. Probabilities are in [0, 1] and
// are evaluated independently per key; zero values inject nothing.
type Chaos struct {
	// Seed drives every decision; two injectors with the same Seed and
	// probabilities inject exactly the same faults.
	Seed int64
	// TraceError is the probability that a trace build fails permanently
	// (keyed by the trace cache key: every attempt, every cell).
	TraceError float64
	// Panic is the probability that a job panics at SiteJobStart, on
	// every attempt — a deterministic failure the runner must not retry.
	Panic float64
	// Flaky is the probability that a job fails with a Transient error on
	// its first FlakyAttempts attempts and then succeeds.
	Flaky float64
	// FlakyAttempts is how many leading attempts a flaky job fails
	// (default 1: fails once, succeeds on the first retry).
	FlakyAttempts int
	// Hang is the probability that the timed replay stalls for HangFor on
	// every attempt; with a per-job deadline this surfaces as
	// context.DeadlineExceeded.
	Hang float64
	// HangFor is the stall duration (default 30s — far beyond any sane
	// per-job deadline).
	HangFor time.Duration
	// Latency is the probability of a benign LatencyFor sleep before the
	// replay: the cell slows down but its result must not change.
	Latency float64
	// LatencyFor is the benign sleep duration (default 1ms).
	LatencyFor time.Duration
	// DistDrop is the probability that a distributed-sweep frame write
	// severs its connection (SiteDistConn → ErrConnDrop).
	DistDrop float64
	// DistHang is the probability that a frame write stalls for HangFor.
	DistHang float64
	// DistLatency is the probability of a benign LatencyFor delay on a
	// frame write.
	DistLatency float64
	// DistKill is the probability that a sweep worker dies mid-cell
	// (SiteDistWorker → ErrWorkerKill), evaluated per (cell key, attempt)
	// so reassigned grants re-roll.
	DistKill float64
}

// Seeded is the deterministic reference Injector: every decision is a pure
// function of (Chaos.Seed, fault kind, site key). It is safe for
// concurrent use.
type Seeded struct{ c Chaos }

// NewSeeded builds a Seeded injector, applying the Chaos defaults.
func NewSeeded(c Chaos) *Seeded {
	if c.FlakyAttempts <= 0 {
		c.FlakyAttempts = 1
	}
	if c.HangFor <= 0 {
		c.HangFor = 30 * time.Second
	}
	if c.LatencyFor <= 0 {
		c.LatencyFor = time.Millisecond
	}
	return &Seeded{c: c}
}

// Inject implements Injector.
func (s *Seeded) Inject(ctx context.Context, site Site, key string, attempt int) error {
	switch site {
	case SiteTraceDecode:
		if s.TraceFails(key) {
			return fmt.Errorf("fault: injected trace failure for %s", key)
		}
	case SiteJobStart:
		if s.WillPanic(key) {
			panic(fmt.Sprintf("fault: injected panic in job %s (attempt %d)", key, attempt))
		}
		if attempt < s.FlakyFailures(key) {
			return Transient(fmt.Errorf("fault: injected transient failure in job %s (attempt %d)", key, attempt))
		}
	case SiteSimulate, SiteServe:
		if s.WillHang(key) {
			return sleep(ctx, s.c.HangFor)
		}
		if s.draw("latency", key) < s.c.Latency {
			return sleep(ctx, s.c.LatencyFor)
		}
	case SiteDistConn:
		if s.ConnDrops(key) {
			return ErrConnDrop
		}
		if s.draw("dist-hang", key) < s.c.DistHang {
			return sleep(ctx, s.c.HangFor)
		}
		if s.draw("dist-latency", key) < s.c.DistLatency {
			return sleep(ctx, s.c.LatencyFor)
		}
	case SiteDistWorker:
		if s.WorkerKills(key, attempt) {
			return ErrWorkerKill
		}
	}
	return nil
}

// WillPanic reports whether jobs with this key panic. The predicates let
// chaos tests compute the expected failure set without running anything.
func (s *Seeded) WillPanic(key string) bool { return s.draw("panic", key) < s.c.Panic }

// WillHang reports whether this key's timed replay stalls.
func (s *Seeded) WillHang(key string) bool { return s.draw("hang", key) < s.c.Hang }

// TraceFails reports whether this trace cache key fails to build.
func (s *Seeded) TraceFails(key string) bool { return s.draw("trace", key) < s.c.TraceError }

// FlakyFailures returns how many leading attempts of this key fail with a
// transient error (0 for non-flaky keys).
func (s *Seeded) FlakyFailures(key string) int {
	if s.draw("flaky", key) < s.c.Flaky {
		return s.c.FlakyAttempts
	}
	return 0
}

// ConnDrops reports whether a frame write on this stream key severs the
// connection.
func (s *Seeded) ConnDrops(key string) bool { return s.draw("dist-drop", key) < s.c.DistDrop }

// WorkerKills reports whether a worker evaluating this cell key dies on
// this grant attempt. The draw mixes the attempt number into the key, so
// a cell that kills its first worker may survive reassignment — which is
// exactly what lets chaos tests compute the quarantine set (cells killed
// on every attempt up to the grant cap) without running anything.
func (s *Seeded) WorkerKills(key string, attempt int) bool {
	return s.draw("dist-kill", fmt.Sprintf("%s#%d", key, attempt)) < s.c.DistKill
}

// Draw exposes the injector's deterministic [0, 1) draw for an arbitrary
// (kind, key) pair. Test harnesses use it to derive their *own* seeded
// misbehaviour — which client drops a frame, corrupts one, disconnects or
// runs slow — from the same Chaos seed that drives the server-side
// injection, keeping a whole chaos scenario reproducible from one number.
func (s *Seeded) Draw(kind, key string) float64 { return s.draw(kind, key) }

// draw returns a uniform [0, 1) value deterministic in (seed, kind, key).
func (s *Seeded) draw(kind, key string) float64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for i := 0; i < 8; i++ {
		mix(byte(uint64(s.c.Seed) >> (8 * i)))
	}
	for i := 0; i < len(kind); i++ {
		mix(kind[i])
	}
	mix(0)
	for i := 0; i < len(key); i++ {
		mix(key[i])
	}
	// xorshift finisher to decorrelate the low FNV bits.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(h>>11) / (1 << 53)
}

// sleep blocks for d or until ctx is done, returning ctx.Err() in the
// latter case.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
