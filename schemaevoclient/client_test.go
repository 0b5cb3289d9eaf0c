// In-package tests: the backoff clock is swapped for a recording fake,
// so retry schedules are asserted without real sleeping; servers are
// either protocol fakes (httptest handlers speaking the service's wire
// shapes) or the real internal/server behind a deterministic fault
// wrapper.
package schemaevoclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"schemaevo/internal/server"
	"schemaevo/internal/synth"
	"schemaevo/internal/telemetry"
)

// recordedSleeps swaps the client's backoff clock for an instant fake
// and returns the recorded durations.
func recordedSleeps(c *Client) *[]time.Duration {
	var (
		mu     sync.Mutex
		sleeps []time.Duration
	)
	c.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		sleeps = append(sleeps, d)
		mu.Unlock()
		return ctx.Err()
	}
	return &sleeps
}

// workload marshals n distinct synthetic repository histories.
func workload(t *testing.T, n int) [][]byte {
	t.Helper()
	c, err := synth.RandomCorpus(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([][]byte, 0, n)
	for _, p := range c.Projects {
		data, err := json.Marshal(p.Repo)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, data)
	}
	return docs
}

// newRealService starts a real analysis server and returns its handler.
func newRealService(t *testing.T) http.Handler {
	t.Helper()
	srv, err := server.New(context.Background(), server.Config{Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// flakyProxy answers a deterministic fraction of requests with an
// injected fault (rotating 429 / 503 / 500, backoff hints on the first
// two) and forwards the rest to the real service.
type flakyProxy struct {
	inner http.Handler
	rate  float64

	mu      sync.Mutex
	rng     *rand.Rand
	total   int
	faulted int
}

func (f *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.total++
	fault := f.rng.Float64() < f.rate
	kind := f.total % 3
	if fault {
		f.faulted++
	}
	f.mu.Unlock()
	if !fault {
		f.inner.ServeHTTP(w, r)
		return
	}
	switch kind {
	case 0:
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"injected backpressure"}`, http.StatusTooManyRequests)
	case 1:
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"injected unavailability"}`, http.StatusServiceUnavailable)
	default:
		http.Error(w, `{"error":"injected transient fault"}`, http.StatusInternalServerError)
	}
}

// TestConvergesUnderInjectedFaults is the client acceptance bar: with
// 30% of ALL requests answered 429/503/500, every submit and every get
// must still converge to the correct result.
func TestConvergesUnderInjectedFaults(t *testing.T) {
	proxy := &flakyProxy{inner: newRealService(t), rate: 0.3, rng: rand.New(rand.NewSource(42))}
	hs := httptest.NewServer(proxy)
	defer hs.Close()

	c := New(Config{
		BaseURL:     hs.URL,
		MaxAttempts: -1, // converge or bust (bounded by the test context)
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	})
	sleeps := recordedSleeps(c)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	docs := workload(t, 25)
	ids := make([]string, len(docs))
	for i, doc := range docs {
		p, err := c.Submit(ctx, doc)
		if err != nil {
			t.Fatalf("submit %d did not converge: %v", i, err)
		}
		if p.ID == "" || p.Pattern == "" {
			t.Fatalf("submit %d: incomplete result %+v", i, p)
		}
		ids[i] = p.ID
	}
	for i, id := range ids {
		p, err := c.Get(ctx, id)
		if err != nil {
			t.Fatalf("get %d did not converge: %v", i, err)
		}
		if p.ID != id {
			t.Fatalf("get %d: id %q, want %q", i, p.ID, id)
		}
	}

	proxy.mu.Lock()
	total, faulted := proxy.total, proxy.faulted
	proxy.mu.Unlock()
	if faulted == 0 {
		t.Fatal("fault proxy injected nothing; the test proved nothing")
	}
	t.Logf("converged through %d/%d injected faults, %d retry sleeps", faulted, total, len(*sleeps))

	// Every sleep that followed a hinted refusal must honor the hint:
	// with jitter capped at 4ms, any sleep >= 1s can only be the hint,
	// and hinted faults (2 of every 3 injected) must produce them.
	hinted := 0
	for _, d := range *sleeps {
		if d >= time.Second {
			hinted++
		}
	}
	if hinted == 0 {
		t.Fatal("no recorded sleep honored the 1s Retry-After hint")
	}
}

// TestHonorsRetryAfter pins the hint floor precisely: two 429s carrying
// Retry-After: 3 must each produce a sleep of at least 3s even though
// the jitter cap is 2ms.
func TestHonorsRetryAfter(t *testing.T) {
	var calls int
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= 2 {
			w.Header().Set("Retry-After", "3")
			http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, `{"schema_version":1,"id":"abc","project":"p","pattern":"X"}`)
	}))
	defer hs.Close()

	c := New(Config{BaseURL: hs.URL, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	sleeps := recordedSleeps(c)
	p, err := c.Submit(context.Background(), []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != "abc" {
		t.Fatalf("result id = %q", p.ID)
	}
	if len(*sleeps) != 2 {
		t.Fatalf("recorded %d sleeps, want 2 (one per 429)", len(*sleeps))
	}
	for i, d := range *sleeps {
		if d < 3*time.Second {
			t.Fatalf("sleep %d = %v, shorter than the 3s Retry-After hint", i, d)
		}
	}
}

// TestBreakerOpensAndRecovers drives an outage long enough to trip the
// breaker and asserts (a) the call still converges once the service
// returns, (b) the breaker inserted cooldown-length waits, i.e. the
// client stopped hammering.
func TestBreakerOpensAndRecovers(t *testing.T) {
	var calls int
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= 7 {
			http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"schema_version":1,"id":"abc","project":"p","pattern":"X"}`)
	}))
	defer hs.Close()

	c := New(Config{
		BaseURL:          hs.URL,
		MaxAttempts:      -1,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       2 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Second,
	})
	sleeps := recordedSleeps(c)
	if _, err := c.Submit(context.Background(), []byte(`{}`)); err != nil {
		t.Fatalf("did not converge after the outage: %v", err)
	}
	if calls != 8 {
		t.Fatalf("server saw %d requests, want 8 (7 failures + success)", calls)
	}
	cooldowns := 0
	for _, d := range *sleeps {
		if d >= 4*time.Second {
			cooldowns++
		}
	}
	// Failures 3..7 each (re)open the breaker; every subsequent attempt
	// waits a full cooldown: 5 waits for 8 requests.
	if cooldowns != 5 {
		t.Fatalf("recorded %d cooldown-length waits, want 5 (sleeps: %v)", cooldowns, *sleeps)
	}
}

// TestPerAttemptDeadline pins the attempt budget: a hung first response
// costs one attempt (AttemptTimeout), not the caller's whole context.
func TestPerAttemptDeadline(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			select { // hang until the client gives up on the attempt
			case <-time.After(10 * time.Second):
			case <-r.Context().Done():
			}
			return
		}
		fmt.Fprint(w, `{"schema_version":1,"id":"abc","project":"p","pattern":"X"}`)
	}))
	defer hs.Close()

	c := New(Config{BaseURL: hs.URL, AttemptTimeout: 150 * time.Millisecond, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	recordedSleeps(c)
	start := time.Now()
	if _, err := c.Submit(context.Background(), []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("call took %v; the hung attempt was not bounded by AttemptTimeout", took)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Fatalf("server saw %d requests, want 2", calls)
	}
}

// TestTerminalErrorsAreNotRetried pins the taxonomy: 4xx answers (other
// than 429) are the caller's problem, immediately.
func TestTerminalErrorsAreNotRetried(t *testing.T) {
	var calls int
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if r.Method == http.MethodGet {
			http.Error(w, `{"error":"unknown project id nope"}`, http.StatusNotFound)
			return
		}
		http.Error(w, `{"error":"invalid repository JSON"}`, http.StatusBadRequest)
	}))
	defer hs.Close()

	c := New(Config{BaseURL: hs.URL})
	recordedSleeps(c)
	_, err := c.Submit(context.Background(), []byte(`not json`))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("submit error = %v, want a 400 APIError", err)
	}
	if _, err := c.Get(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get error = %v, want ErrNotFound", err)
	}
	if calls != 2 {
		t.Fatalf("server saw %d requests, want 2 (no retries)", calls)
	}
}

// TestNoDDLSubmitIsNotRetried pins that a history with no DDL file is
// the caller's fault end to end: the real service answers 400 and Submit
// gives up after exactly one attempt, with no backoff sleep.
func TestNoDDLSubmitIsNotRetried(t *testing.T) {
	svc := newRealService(t)
	var mu sync.Mutex
	calls := 0
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		svc.ServeHTTP(w, r)
	}))
	defer hs.Close()

	c := New(Config{BaseURL: hs.URL})
	sleeps := recordedSleeps(c)
	noDDL := []byte(`{"name":"no-ddl","commits":[{"id":"c1","time":"2020-01-01T00:00:00Z","files":{"main.go":"package main"}}]}`)
	_, err := c.Submit(context.Background(), noDDL)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("submit error = %v, want a 400 APIError", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 || len(*sleeps) != 0 {
		t.Fatalf("server saw %d attempts with %d backoff sleeps, want exactly 1 and none", calls, len(*sleeps))
	}
}

// TestReadyAgainstRealService pins Ready's no-retry-on-503 contract
// against the real server in both states.
func TestReadyAgainstRealService(t *testing.T) {
	srv, err := server.New(context.Background(), server.Config{Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	c := New(Config{BaseURL: hs.URL})
	recordedSleeps(c)
	ready, err := c.Ready(context.Background())
	if err != nil || !ready {
		t.Fatalf("Ready() = %v, %v; want true", ready, err)
	}
	h, err := c.Health(context.Background())
	if err != nil || h.Status != "healthy" {
		t.Fatalf("Health() = %+v, %v; want healthy", h, err)
	}

	srv.BeginDrain()
	ready, err = c.Ready(context.Background())
	if err != nil || ready {
		t.Fatalf("Ready() while draining = %v, %v; want false without error", ready, err)
	}
}
