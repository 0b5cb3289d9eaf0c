package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many times each end-to-end run builds its set-up; the
// run reports the median set-up time and measures the last one.
const setupRuns = 3

// windows is how many equal-count slices a run's operations are cut into
// (in completion order). Throughput is the median of the per-window rates
// and the latency tail the median of the per-window tails, so a host
// slowdown that covers less than half of a run moves neither.
const windows = 20

// repeatSetup runs build setupRuns times, releasing every state but the
// last, and returns the last state with the median build time in seconds
// of VM time (see vmSeconds).
func repeatSetup[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var (
		state T
		times []float64
	)
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			release(state)
		}
		meter := startSteal()
		begin := time.Now()
		s, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, vmSeconds(time.Since(begin), meter.share()))
		state = s
	}
	return state, median(times), nil
}

// opLog records one client's operations: when each completed, measured
// from the start of the timed run, and how long it took.
type opLog struct {
	ends []time.Duration
	lats []time.Duration
}

func newOpLog(capacity int) *opLog {
	return &opLog{ends: make([]time.Duration, 0, capacity), lats: make([]time.Duration, 0, capacity)}
}

func (l *opLog) add(start, begin, end time.Time) {
	l.ends = append(l.ends, end.Sub(start))
	l.lats = append(l.lats, end.Sub(begin))
}

// summary is a run's end-to-end timing figures.
type summary struct {
	throughput float64 // units per second
	p50, p90   float64 // microseconds
}

// summarize merges the client logs and computes throughput (units per
// wall second, unitsPerOp units per operation) and the latency quantiles.
// Operations are cut into windows in completion order; throughput and the
// p90 are medians over the windows, the p50 is over all operations.
func summarize(unitsPerOp float64, logs ...*opLog) summary {
	type op struct{ end, lat time.Duration }
	var ops []op
	for _, l := range logs {
		for i := range l.ends {
			ops = append(ops, op{l.ends[i], l.lats[i]})
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	n := len(ops)
	if n == 0 {
		return summary{}
	}
	all := make([]float64, n)
	for i, o := range ops {
		all[i] = us(o.lat)
	}
	k := min(windows, n)
	var rates, tails []float64
	var prevEnd time.Duration
	for w := 0; w < k; w++ {
		lo, hi := w*n/k, (w+1)*n/k
		end := ops[hi-1].end
		if d := end - prevEnd; d > 0 {
			rates = append(rates, float64(hi-lo)*unitsPerOp/d.Seconds())
		}
		prevEnd = end
		lat := make([]float64, 0, hi-lo)
		for _, o := range ops[lo:hi] {
			lat = append(lat, us(o.lat))
		}
		tails = append(tails, quantile(lat, 0.90))
	}
	return summary{
		throughput: median(rates),
		p50:        quantile(all, 0.50),
		p90:        median(tails),
	}
}

// summarizeByInput is summarize for a run that cycles through several
// inputs of different cost, logs[i] holding input i's operations. The
// latency quantiles are taken per input and averaged: a quantile of the
// mixture would jump between the inputs' clusters.
func summarizeByInput(unitsPerOp float64, logs []*opLog) summary {
	s := summarize(unitsPerOp, logs...)
	s.p50, s.p90 = 0, 0
	for _, l := range logs {
		lats := make([]float64, len(l.lats))
		for i, d := range l.lats {
			lats[i] = us(d)
		}
		s.p50 += quantile(lats, 0.50) / float64(len(logs))
		s.p90 += quantile(lats, 0.90) / float64(len(logs))
	}
	return s
}

// endToEnd adds the metrics every workload reports. The timed run's
// figures are converted from wall-clock to VM time with the share of CPU
// time stolen during the run; the wall-clock figures are printed too.
func endToEnd(m map[string]metric, setupS float64, s summary, stolen float64) {
	fmt.Printf("%-36s throughput %.4f 1/s, p50 %.4f us, p90 %.4f us; %.2f%% of CPU time stolen\n",
		"timed run on the wall clock", s.throughput, s.p50, s.p90, 100*stolen)
	f := 1 - stolen
	m["setup_s"] = metric{setupS, "s"}
	m["throughput_ops_s"] = metric{s.throughput / f, "1/s"}
	m["latency_p50_us"] = metric{s.p50 * f, "us"}
	m["latency_p90_us"] = metric{s.p90 * f, "us"}
	m["peak_rss_mib"] = metric{peakRSSMiB(), "MiB"}
}

// vmSeconds converts a wall-clock interval to VM time: the part of it the
// machine's CPUs were running this VM, not stolen by the hypervisor for
// other guests. On a shared 2-core VM the stolen share moved between 1%
// and 35% from run to run, and every wall-clock figure with it.
func vmSeconds(wall time.Duration, stolen float64) float64 {
	return wall.Seconds() * (1 - stolen)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile is the q-quantile of xs by linear interpolation; xs is sorted
// in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// resetPeakRSS restarts the kernel's peak-RSS count (VmHWM) from the
// current RSS.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS covers set-up too:", err)
	}
}

// peakRSSMiB is the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// probeSink keeps the host probe's loop from being optimised away.
var probeSink uint64

// hostProbe times a fixed pure-CPU loop, in milliseconds. It runs before
// and after every run and is printed beside the run's metrics, so a slow
// run can be traced to the host; it is not a metric.
func hostProbe() float64 {
	begin := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<24; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x
	return float64(time.Since(begin).Nanoseconds()) / 1e6
}

// timed runs the timed part of a workload. Before timing it collects
// garbage and returns freed memory to the kernel (debug.FreeOSMemory runs
// runtime.GC), then restarts the peak-RSS count, so set-up garbage stays
// out of the run's time and its peak RSS. It returns the share of CPU time
// stolen during the run.
func timed(run func() error) (float64, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	meter := startSteal()
	err := run()
	return meter.share(), err
}

// stealMeter measures the share of the machine's CPU time the hypervisor
// stole from an interval.
type stealMeter struct{ total, steal int64 }

func startSteal() stealMeter {
	total, steal := cpuTicks()
	return stealMeter{total, steal}
}

// share is the stolen share of CPU time since the meter started.
func (m stealMeter) share() float64 {
	total, steal := cpuTicks()
	return ratio(float64(steal-m.steal), float64(total-m.total))
}

// cpuTicks reads the machine's cumulative CPU time from /proc/stat, in
// clock ticks: the total over every state, and the share stolen by the
// hypervisor for other guests.
func cpuTicks() (total, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
