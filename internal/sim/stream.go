package sim

import (
	"context"

	"pathfinder/internal/trace"
)

// replayWindowSize is the capacity of each core's lookahead buffer between
// its trace.Source and the pipeline. The pipeline consumes accesses
// strictly in order, so correctness needs no lookahead at all; the window
// exists to batch decoder pulls (amortizing the Source indirection) while
// keeping replay heap usage bounded regardless of trace length.
const replayWindowSize = 256

// replayWindow is the bounded lookahead buffer feeding one core pipeline
// from a trace.Source. It refills in whole batches when it runs dry and
// hands records out in order. The source's terminal state (io.EOF or a
// decode error) is latched and delivered only after every buffered record
// has been replayed, so a stream that fails mid-decode still replays its
// valid prefix before the run reports the error.
type replayWindow struct {
	src  trace.Source
	buf  [replayWindowSize]trace.Access
	head int
	n    int
	err  error // terminal source state; nil while the source is live
	peak int   // occupancy high-water mark, flushed to telemetry
}

func newReplayWindow(src trace.Source) *replayWindow {
	return &replayWindow{src: src}
}

// rearm points the window at a new source and clears all buffered state, so
// an Engine can reuse the window (and its buffer) across runs.
func (w *replayWindow) rearm(src trace.Source) {
	w.src = src
	w.head = 0
	w.n = 0
	w.err = nil
	w.peak = 0
}

// refill tops the window up from the source until it is full or the source
// reaches its terminal state.
func (w *replayWindow) refill() {
	for w.n < len(w.buf) && w.err == nil {
		if err := w.src.Next(&w.buf[(w.head+w.n)%len(w.buf)]); err != nil {
			w.err = err
			break
		}
		w.n++
	}
	if w.n > w.peak {
		w.peak = w.n
	}
}

// peek returns the next record without consuming it, refilling from the
// source if the window ran dry. ok is false once the window is drained and
// the source terminal.
func (w *replayWindow) peek() (trace.Access, bool) {
	if w.n == 0 {
		if w.err != nil {
			return trace.Access{}, false
		}
		w.refill()
		if w.n == 0 {
			return trace.Access{}, false
		}
	}
	return w.buf[w.head], true
}

// pop consumes the record peek returned.
func (w *replayWindow) pop() {
	w.head = (w.head + 1) % len(w.buf)
	w.n--
}

// drained reports whether every record has been replayed and the source is
// terminal.
func (w *replayWindow) drained() bool {
	_, ok := w.peek()
	return !ok
}

// srcErr returns the source's terminal error: io.EOF for a clean end, the
// decode error otherwise, nil while the source is live.
func (w *replayWindow) srcErr() error { return w.err }

// RunStream is Run fed by a trace.Source instead of a materialized slice:
// the replay holds at most replayWindowSize accesses at a time, so heap
// usage is bounded regardless of trace length. Results are bit-identical
// to Run over the same records — Run is implemented on this path.
//
// A Source has no length, so Warmup semantics shift at one edge: a warmup
// that consumes the entire stream is detected at end of run (the slice
// path rejects it up front). Sources exposing Remaining() (uint64, bool)
// — SliceSource, counted trace files — keep the up-front rejection.
func RunStream(cfg Config, src trace.Source, pfs []trace.Prefetch) (Result, error) {
	return RunStreamCtx(context.Background(), cfg, src, pfs)
}

// RunStreamCtx is RunStream with cancellation.
func RunStreamCtx(ctx context.Context, cfg Config, src trace.Source, pfs []trace.Prefetch) (Result, error) {
	res, err := RunMultiStreamCtx(ctx, cfg, []trace.Source{src}, [][]trace.Prefetch{pfs})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// RunMultiStream is RunMulti fed by one trace.Source per core.
func RunMultiStream(cfg Config, srcs []trace.Source, pfs [][]trace.Prefetch) ([]Result, error) {
	return RunMultiStreamCtx(context.Background(), cfg, srcs, pfs)
}

// RunMultiStreamCtx is RunMultiStream with cancellation: the scheduling
// loop polls ctx every few thousand steps and returns ctx.Err() when
// cancelled.
//
// It runs on a pooled Engine (AcquireEngine), so repeated calls with the
// same configuration reuse the machine's memory instead of rebuilding the
// hierarchy; results are bit-identical to a fresh Engine either way.
// Long-lived callers that want explicit ownership can hold an Engine (or a
// pool of them) and call its methods directly.
func RunMultiStreamCtx(ctx context.Context, cfg Config, srcs []trace.Source, pfs [][]trace.Prefetch) ([]Result, error) {
	// Validate before acquiring: an invalid machine must not get a pool.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng, release := AcquireEngine(cfg)
	defer release()
	return eng.RunMultiStreamCtx(ctx, srcs, pfs)
}
