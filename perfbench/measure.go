package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"pathfinder"
)

// cpuNow is the process CPU time (user plus system, all threads). Timed
// phases use it instead of the wall clock because other tenants of a
// shared host steal CPU: the wall clock counts the stolen time, this
// clock does not.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail with RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// span measures one interval on both clocks.
type span struct {
	cpu0  time.Duration
	wall0 time.Time
}

func startSpan() span { return span{cpu0: cpuNow(), wall0: time.Now()} }

// stop returns the CPU and wall time since startSpan.
func (s span) stop() (cpu, wall time.Duration) {
	return cpuNow() - s.cpu0, time.Since(s.wall0)
}

// totalAlloc is the cumulative bytes allocated on the Go heap.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianOf is the median of f(0), ..., f(n-1).
func medianOf(n int, f func(i int) time.Duration) time.Duration {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(f(i))
	}
	return time.Duration(median(xs))
}

// heapSampler records the peak Go heap in use (live and unswept objects
// plus the unused part of in-use spans) by polling runtime/metrics, which
// does not stop the world.
type heapSampler struct {
	done chan struct{}
	peak chan float64
}

var heapMetrics = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

func heapInUse(s []metrics.Sample) float64 {
	metrics.Read(s)
	var v float64
	for _, x := range s {
		v += float64(x.Value.Uint64())
	}
	return v
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		s := make([]metrics.Sample, len(heapMetrics))
		for i, n := range heapMetrics {
			s[i].Name = n
		}
		peak := heapInUse(s)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				if v := heapInUse(s); v > peak {
					peak = v
				}
				h.peak <- peak
				return
			case <-t.C:
				if v := heapInUse(s); v > peak {
					peak = v
				}
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.done)
	return <-h.peak
}

// hostStamp identifies the machine and build a result was measured on.
func hostStamp() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// telemetry switches the program's own counters on for a traced phase and
// returns a function that snapshots them and switches them off again.
func telemetry() func() *pathfinder.TelemetrySnapshot {
	pathfinder.EnableTelemetry()
	return func() *pathfinder.TelemetrySnapshot {
		s := pathfinder.TelemetrySnapshotNow()
		pathfinder.DisableTelemetry()
		return s
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median, because one set-up is only milliseconds of CPU.
const setupReps = 15

// reps is the record of a timed phase that repeats one unit of work. In a
// traced run the repetitions alternate between telemetry off and on, so
// the two halves measure the same work interleaved in time.
type reps struct {
	cpu, tracedCPU []float64 // seconds per repetition
	wall           time.Duration
	cpuSum         time.Duration
	allocs         []float64 // bytes allocated per untraced repetition
	snap           *pathfinder.TelemetrySnapshot
}

// repeat runs work until the timed phase has lasted o.seconds on the wall
// clock, and at least minReps times (per half in a traced run).
//
// In a traced run each traced repetition is followed by replay, the direct
// stage replay that times the layers, so that the layers and the total
// they are set against are measured over the same stretch of host time.
func repeat(o options, minReps int, work, replay func() error) (reps, error) {
	var r reps
	start := time.Now()
	for i := 0; ; i++ {
		traced := o.traced && i%2 == 1
		var stop func() *pathfinder.TelemetrySnapshot
		if traced {
			stop = telemetry()
		}
		a0 := totalAlloc()
		sp := startSpan()
		err := work()
		cpu, wall := sp.stop()
		a1 := totalAlloc()
		if traced {
			r.snap = stop()
			if err == nil {
				err = replay()
			}
		}
		if err != nil {
			return r, err
		}
		r.wall += wall
		r.cpuSum += cpu
		if traced {
			r.tracedCPU = append(r.tracedCPU, cpu.Seconds())
		} else {
			r.cpu = append(r.cpu, cpu.Seconds())
			r.allocs = append(r.allocs, float64(a1-a0))
		}
		enough := len(r.cpu) >= minReps && (!o.traced || len(r.tracedCPU) >= minReps)
		if enough && time.Since(start).Seconds() >= o.seconds {
			return r, nil
		}
	}
}

func (r reps) wallOverCPU() float64 { return ratio(r.wall.Seconds(), r.cpuSum.Seconds()) }

// tracingOverhead is the traced repetitions' median CPU over the untraced
// ones', minus one.
func (r reps) tracingOverhead() float64 {
	return ratio(median(append([]float64(nil), r.tracedCPU...)), median(append([]float64(nil), r.cpu...))) - 1
}

// timedSetup repeats a set-up setupReps times and returns the median
// process CPU seconds together with the last repetition's product.
func timedSetup[T any](fn func() (T, error)) (T, float64, error) {
	var out T
	var cpu []float64
	for i := 0; i < setupReps; i++ {
		sp := startSpan()
		v, err := fn()
		c, _ := sp.stop()
		if err != nil {
			return out, 0, err
		}
		out = v
		cpu = append(cpu, c.Seconds())
	}
	settle()
	return out, median(cpu), nil
}

// settle collects the set-up's garbage before the timed phase, so that the
// timed phase does not pay for it.
func settle() { runtime.GC() }
