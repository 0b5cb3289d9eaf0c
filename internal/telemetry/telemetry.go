// Package telemetry is the toolchain's zero-dependency observability
// layer: per-stage counters and duration histograms, queue-wait and
// worker-occupancy tracking, cache effectiveness counters, fault and
// degradation event tallies, and span-style per-project traces.
//
// The design contract is that disabled telemetry costs nothing on the hot
// path: a nil *Collector (and the nil *Stage handles it hands out) is a
// valid no-op — every method nil-checks its receiver and returns
// immediately, so instrumented code carries no conditional wiring and no
// allocation when observability is off. When enabled, the hot-path
// operations are single atomic adds (plus one mutex-guarded append per
// span, which happens once per project per stage, far off the per-byte
// paths). BenchmarkDisabled* pins the disabled-path cost at the
// single-nil-check floor.
//
// A Collector is scoped to one run. Wire it through pipeline.Options,
// read the results with Snapshot (a Report with stable, documented field
// order), and export per-project traces with WriteTraceJSONL.
package telemetry

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the number of exponential duration buckets: bucket i
// counts durations in [2^(i-1), 2^i) microseconds, so the histogram spans
// sub-microsecond to ~2^38 µs (~76 hours) — wider than any stage run.
const histBuckets = 40

// histogram is a lock-free exponential duration histogram.
type histogram struct {
	counts [histBuckets]atomic.Int64
}

// observe files one duration. Safe for concurrent use.
func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	idx := bits.Len64(uint64(us)) // 0 for <1µs
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	h.counts[idx].Add(1)
}

// quantile returns the upper bound of the bucket holding the q-th
// quantile (q in [0,1]), as a duration. Zero observations yield 0.
func (h *histogram) quantile(q float64) time.Duration {
	total := int64(0)
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	run := int64(0)
	for i := range h.counts {
		run += h.counts[i].Load()
		if run > target {
			if i == 0 {
				return time.Microsecond
			}
			return time.Duration(int64(1)<<i) * time.Microsecond
		}
	}
	return time.Duration(int64(1)<<(histBuckets-1)) * time.Microsecond
}

// Stage accumulates one pipeline stage's telemetry. Obtain handles from
// Collector.Stage once per run and reuse them: every method is a plain
// atomic update (or a no-op on a nil receiver), so handles are safe to
// call from any number of workers.
type Stage struct {
	name    string
	col     *Collector
	workers atomic.Int64
	jobs    atomic.Int64
	errs    atomic.Int64
	busyNS  atomic.Int64
	waitNS  atomic.Int64
	active  atomic.Int64
	maxAct  atomic.Int64
	hist    histogram
}

// SetWorkers records the stage's configured pool size. Nil-safe.
func (s *Stage) SetWorkers(n int) {
	if s == nil {
		return
	}
	s.workers.Store(int64(n))
}

// Enter marks a worker busy on this stage, maintaining the occupancy
// high-water mark. Nil-safe.
func (s *Stage) Enter() {
	if s == nil {
		return
	}
	cur := s.active.Add(1)
	for {
		max := s.maxAct.Load()
		if cur <= max || s.maxAct.CompareAndSwap(max, cur) {
			return
		}
	}
}

// Exit marks the worker idle again. Nil-safe.
func (s *Stage) Exit() {
	if s == nil {
		return
	}
	s.active.Add(-1)
}

// Observe files one processed job: how long it waited in the stage's
// input queue, how long the stage function ran, and whether it failed.
// Nil-safe.
func (s *Stage) Observe(wait, busy time.Duration, failed bool) {
	if s == nil {
		return
	}
	s.jobs.Add(1)
	if failed {
		s.errs.Add(1)
	}
	s.busyNS.Add(int64(busy))
	s.waitNS.Add(int64(wait))
	s.hist.observe(busy)
}

// Span is one traced unit of work: a (project, stage) pair with its
// start offset from the run start and its duration.
type Span struct {
	Project string `json:"project"`
	Stage   string `json:"stage"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Err     bool   `json:"err,omitempty"`
}

// defaultSpanCap bounds the trace buffer; beyond it spans are counted as
// dropped rather than growing memory without bound on huge corpora.
const defaultSpanCap = 1 << 17

// Collector gathers one run's telemetry. A nil *Collector is a valid
// no-op: every method (and every handle it returns) checks for nil, so
// instrumented code needs no enablement flags. Construct with New.
type Collector struct {
	start   time.Time
	spanCap int

	mu      sync.Mutex
	stages  []*Stage
	byName  map[string]*Stage
	faults  map[string]int64
	degrade map[string]int64
	gauges  map[string]int64
	spans   []Span

	spansDropped atomic.Int64

	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	cacheWrites   atomic.Int64
	cacheErrors   atomic.Int64
	cacheCorrupt  atomic.Int64
	cacheRetries  atomic.Int64
	cacheQuarant  atomic.Int64
	cacheReaped   atomic.Int64
	cacheBytesIn  atomic.Int64
	cacheBytesOut atomic.Int64

	storeHotHits     atomic.Int64
	storeHotMisses   atomic.Int64
	storeDiskHits    atomic.Int64
	storeDiskMisses  atomic.Int64
	storeAppends     atomic.Int64
	storeFlushes     atomic.Int64
	storeFlushErrors atomic.Int64
	storeCompactions atomic.Int64
	storeQuarant     atomic.Int64
	storeReanalyses  atomic.Int64
	storeScrubPasses atomic.Int64
	storeScrubbed    atomic.Int64
	storeRepairs     atomic.Int64
	storeDiskFull    atomic.Int64
	storeReadOnly    atomic.Int64
	storeBytesIn     atomic.Int64
	storeBytesOut    atomic.Int64

	renderHits        atomic.Int64
	renderMisses      atomic.Int64
	renderWrites      atomic.Int64
	renderInvalidates atomic.Int64
	renderEvictions   atomic.Int64
	renderNotModified atomic.Int64
	renderBytesIn     atomic.Int64
	renderBytesOut    atomic.Int64
}

// New returns a collector anchored at the current time.
func New() *Collector {
	return &Collector{
		start:   time.Now(),
		spanCap: defaultSpanCap,
		byName:  map[string]*Stage{},
		faults:  map[string]int64{},
		degrade: map[string]int64{},
		gauges:  map[string]int64{},
	}
}

// Stage returns the accumulator for the named stage, registering it on
// first use. The handle order of first registration is the report order.
// A nil collector returns a nil (still fully usable, no-op) handle.
func (c *Collector) Stage(name string) *Stage {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.byName[name]; ok {
		return s
	}
	s := &Stage{name: name, col: c}
	c.byName[name] = s
	c.stages = append(c.stages, s)
	return s
}

// CacheHit records a cache hit serving n bytes. Nil-safe.
func (c *Collector) CacheHit(n int64) {
	if c == nil {
		return
	}
	c.cacheHits.Add(1)
	c.cacheBytesIn.Add(n)
}

// CacheMiss records a cache miss. Nil-safe.
func (c *Collector) CacheMiss() {
	if c == nil {
		return
	}
	c.cacheMisses.Add(1)
}

// CacheWrite records a successful entry write of n bytes. Nil-safe.
func (c *Collector) CacheWrite(n int64) {
	if c == nil {
		return
	}
	c.cacheWrites.Add(1)
	c.cacheBytesOut.Add(n)
}

// CacheError records an unhealthy cache incident (unreadable entry,
// failed write). Nil-safe.
func (c *Collector) CacheError() {
	if c == nil {
		return
	}
	c.cacheErrors.Add(1)
}

// CacheCorrupt records an entry that failed its integrity check. Nil-safe.
func (c *Collector) CacheCorrupt() {
	if c == nil {
		return
	}
	c.cacheCorrupt.Add(1)
}

// CacheRetry records one retry of a cache filesystem operation. Nil-safe.
func (c *Collector) CacheRetry() {
	if c == nil {
		return
	}
	c.cacheRetries.Add(1)
}

// CacheQuarantine records an entry moved to the corrupt/ directory.
// Nil-safe.
func (c *Collector) CacheQuarantine() {
	if c == nil {
		return
	}
	c.cacheQuarant.Add(1)
}

// CacheReap records a quarantined corrupt/ file reaped by the retention
// cap (too many, or too old). Nil-safe.
func (c *Collector) CacheReap() {
	if c == nil {
		return
	}
	c.cacheReaped.Add(1)
}

// StoreHotHit records a result-store hit served from process memory (a
// memory-mode store), n bytes. Nil-safe.
func (c *Collector) StoreHotHit(n int64) {
	if c == nil {
		return
	}
	c.storeHotHits.Add(1)
	c.storeBytesIn.Add(n)
}

// StoreHotMiss records a result-store lookup not answered from memory
// (every lookup of a disk-mode store, which continues to the segment
// files). Nil-safe.
func (c *Collector) StoreHotMiss() {
	if c == nil {
		return
	}
	c.storeHotMisses.Add(1)
}

// StoreDiskHit records a result-store hit served from the disk tier,
// n bytes. Nil-safe.
func (c *Collector) StoreDiskHit(n int64) {
	if c == nil {
		return
	}
	c.storeDiskHits.Add(1)
	c.storeBytesIn.Add(n)
}

// StoreDiskMiss records a store lookup that missed every tier. Nil-safe.
func (c *Collector) StoreDiskMiss() {
	if c == nil {
		return
	}
	c.storeDiskMisses.Add(1)
}

// StoreAppend records one record of n bytes appended to a segment file
// (still buffered until the next flush). Nil-safe.
func (c *Collector) StoreAppend(n int64) {
	if c == nil {
		return
	}
	c.storeAppends.Add(1)
	c.storeBytesOut.Add(n)
}

// StoreFlush records one successful segment flush. Nil-safe.
func (c *Collector) StoreFlush() {
	if c == nil {
		return
	}
	c.storeFlushes.Add(1)
}

// StoreFlushError records a failed (possibly torn) segment flush. Nil-safe.
func (c *Collector) StoreFlushError() {
	if c == nil {
		return
	}
	c.storeFlushErrors.Add(1)
}

// StoreCompaction records one shard compaction. Nil-safe.
func (c *Collector) StoreCompaction() {
	if c == nil {
		return
	}
	c.storeCompactions.Add(1)
}

// StoreQuarantine records a store record that failed its integrity check
// and was quarantined (skipped, its entry served from elsewhere or marked
// for re-analysis). Nil-safe.
func (c *Collector) StoreQuarantine() {
	if c == nil {
		return
	}
	c.storeQuarant.Add(1)
}

// StoreReanalysis records a project recomputed from its persisted source
// snapshot because its stored result was quarantined. Nil-safe.
func (c *Collector) StoreReanalysis() {
	if c == nil {
		return
	}
	c.storeReanalyses.Add(1)
}

// StoreScrubPass records one completed scrubber pass over every shard.
// Nil-safe.
func (c *Collector) StoreScrubPass() {
	if c == nil {
		return
	}
	c.storeScrubPasses.Add(1)
}

// StoreScrubRecord records one record proactively CRC-verified by the
// scrubber (clean or not). Nil-safe.
func (c *Collector) StoreScrubRecord() {
	if c == nil {
		return
	}
	c.storeScrubbed.Add(1)
}

// StoreRepair records one quarantined entry restored to service by the
// scrubber's repair callback. Nil-safe.
func (c *Collector) StoreRepair() {
	if c == nil {
		return
	}
	c.storeRepairs.Add(1)
}

// StoreDiskFull records one ENOSPC (or injected equivalent) observed on
// the segment write path. Nil-safe.
func (c *Collector) StoreDiskFull() {
	if c == nil {
		return
	}
	c.storeDiskFull.Add(1)
}

// StoreReadOnlyEvent records one transition of the store into read-only
// mode. Nil-safe.
func (c *Collector) StoreReadOnlyEvent() {
	if c == nil {
		return
	}
	c.storeReadOnly.Add(1)
}

// RenderHit records a pre-rendered response body served straight from
// the render cache, n body bytes. Nil-safe.
func (c *Collector) RenderHit(n int64) {
	if c == nil {
		return
	}
	c.renderHits.Add(1)
	c.renderBytesIn.Add(n)
}

// RenderMiss records a render-cache lookup that found no live entry (the
// body is rendered and, epoch permitting, inserted). Nil-safe.
func (c *Collector) RenderMiss() {
	if c == nil {
		return
	}
	c.renderMisses.Add(1)
}

// RenderWrite records one rendered body of n bytes inserted into the
// render cache. Nil-safe.
func (c *Collector) RenderWrite(n int64) {
	if c == nil {
		return
	}
	c.renderWrites.Add(1)
	c.renderBytesOut.Add(n)
}

// RenderInvalidate records one render-cache invalidation (overwrite,
// delete, or re-analysis commit bumping the key's epoch). Nil-safe.
func (c *Collector) RenderInvalidate() {
	if c == nil {
		return
	}
	c.renderInvalidates.Add(1)
}

// RenderEvict records one rendered body evicted by the byte budget.
// Nil-safe.
func (c *Collector) RenderEvict() {
	if c == nil {
		return
	}
	c.renderEvictions.Add(1)
}

// RenderNotModified records one conditional GET answered 304 with zero
// body bytes. Nil-safe.
func (c *Collector) RenderNotModified() {
	if c == nil {
		return
	}
	c.renderNotModified.Add(1)
}

// SetGauge records the current value of a named gauge (health state,
// read-only flag, free disk bytes). Last write wins; gauges render sorted
// by name in the report. Nil-safe.
func (c *Collector) SetGauge(name string, v int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.gauges[name] = v
	c.mu.Unlock()
}

// Fault records one injected fault firing at a site. Nil-safe. This is a
// cold path (faults are rare by construction), so a mutex is fine.
func (c *Collector) Fault(site, kind string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.faults[site+"/"+kind]++
	c.mu.Unlock()
}

// Degradation records one degradation event of the given taxonomy kind
// (parse, assemble, metrics, timeout, panic, anomaly, ...). Nil-safe.
func (c *Collector) Degradation(kind string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.degrade[kind]++
	c.mu.Unlock()
}

// RecordSpan traces one (project, stage) execution. Spans beyond the
// buffer cap are counted as dropped. Nil-safe.
func (c *Collector) RecordSpan(project, stage string, start time.Time, d time.Duration, failed bool) {
	if c == nil {
		return
	}
	sp := Span{
		Project: project,
		Stage:   stage,
		StartUS: start.Sub(c.start).Microseconds(),
		DurUS:   d.Microseconds(),
		Err:     failed,
	}
	c.mu.Lock()
	if len(c.spans) >= c.spanCap {
		c.mu.Unlock()
		c.spansDropped.Add(1)
		return
	}
	c.spans = append(c.spans, sp)
	c.mu.Unlock()
}

// Spans returns a copy of the recorded spans sorted by start offset,
// then project, then stage — a deterministic order for any export.
// Nil-safe.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := append([]Span(nil), c.spans...)
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartUS != out[j].StartUS {
			return out[i].StartUS < out[j].StartUS
		}
		if out[i].Project != out[j].Project {
			return out[i].Project < out[j].Project
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}
