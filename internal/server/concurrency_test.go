package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"schemaevo/internal/faultinject"
	"schemaevo/internal/server"
	"schemaevo/internal/telemetry"
	"schemaevo/internal/vcs"
)

// delayInjector builds an injector that stalls every submission at the
// handler-path site for d — the deterministic way to hold an analysis
// in flight while other requests arrive.
func delayInjector(d time.Duration) *faultinject.Injector {
	return faultinject.New(faultinject.Config{
		Seed:  1,
		Rate:  1,
		Kinds: []faultinject.Kind{faultinject.KindDelay},
		Sites: []string{"server.submit"},
		Delay: d,
	})
}

// TestSingleflightCollapsesDuplicates fires N concurrent identical
// submissions and asserts the pipeline executed exactly once — verified
// through the server's execution counter AND the telemetry report's
// analyze.exec stage — while every caller still received a full,
// identical 200 body.
func TestSingleflightCollapsesDuplicates(t *testing.T) {
	tel := telemetry.New()
	// The delay holds the leader in the handler long enough for all
	// followers to join its flight; the leader's post-completion store
	// double-check makes even a late straggler reuse the result.
	srv, hs := newService(t, server.Config{Telemetry: tel, Fault: delayInjector(300 * time.Millisecond)})

	const n = 16
	repo := submitRepo()
	payload, err := json.Marshal(repo)
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg     sync.WaitGroup
		start  = make(chan struct{})
		mu     sync.Mutex
		bodies [][]byte
		codes  []int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(hs.URL+"/v1/projects", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			mu.Lock()
			bodies = append(bodies, buf.Bytes())
			codes = append(codes, resp.StatusCode)
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, code, bodies[i])
		}
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	if got := srv.Analyses(); got != 1 {
		t.Fatalf("pipeline executions = %d, want exactly 1 for %d duplicate submissions", got, n)
	}
	// Cross-check through the public telemetry report.
	rep := tel.Snapshot()
	for _, st := range rep.Stages {
		if st.Name == "analyze.exec" && st.Jobs != 1 {
			t.Fatalf("telemetry analyze.exec jobs = %d, want 1", st.Jobs)
		}
		if st.Name == "http.submit" && st.Jobs != n {
			t.Fatalf("telemetry http.submit jobs = %d, want %d", st.Jobs, n)
		}
	}
}

// distinctRepo derives a content-distinct variant of the golden repo.
func distinctRepo(i int) *vcs.Repo {
	r := submitRepo()
	r.Name = fmt.Sprintf("distinct-project-%02d", i)
	commits := append([]vcs.Commit(nil), r.Commits...)
	files := map[string]string{}
	for k, v := range commits[0].Files {
		files[k] = v + fmt.Sprintf("\nCREATE TABLE extra_%02d (id INT);", i)
	}
	commits[0].Files = files
	r.Commits = commits
	return r
}

// TestDistinctSubmissionsAllExecute is the complement of the collapse
// test: N concurrent distinct submissions do not share results.
func TestDistinctSubmissionsAllExecute(t *testing.T) {
	srv, hs := newService(t, server.Config{MaxConcurrent: 32})
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, body := post(t, hs.URL, distinctRepo(i))
			if status != http.StatusOK {
				t.Errorf("distinct submit %d: status %d, body %s", i, status, body)
			}
		}(i)
	}
	wg.Wait()
	if got := srv.Analyses(); got != n {
		t.Fatalf("pipeline executions = %d, want %d", got, n)
	}
	// IDs are content-derived, so all n results are retrievable.
	for i := 0; i < n; i++ {
		_, _, body := post(t, hs.URL, distinctRepo(i))
		var wire struct {
			ID      string `json:"id"`
			Project string `json:"project"`
		}
		if err := json.Unmarshal(body, &wire); err != nil {
			t.Fatal(err)
		}
		if wire.Project != fmt.Sprintf("distinct-project-%02d", i) {
			t.Fatalf("result %d resolved to %q", i, wire.Project)
		}
	}
	if got := srv.Analyses(); got != n {
		t.Fatalf("resubmits recomputed: executions = %d, want still %d", srv.Analyses(), n)
	}
}

// TestBackpressure429 saturates the single worker slot with a stalled
// submission and asserts the next distinct submission is rejected with
// 429 and a Retry-After hint, without waiting.
func TestBackpressure429(t *testing.T) {
	srv, hs := newService(t, server.Config{
		MaxConcurrent: 1,
		RetryAfter:    2 * time.Second,
		Fault:         delayInjector(3 * time.Second),
	})

	// Occupy the only worker slot with a stalled submission.
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		status, _, body := post(t, hs.URL, distinctRepo(0))
		if status != http.StatusOK {
			t.Errorf("stalled submit: status %d, body %s", status, body)
		}
	}()

	// Wait until the stalled request is provably inside the handler,
	// then give it a beat to pass fingerprinting and acquire the slot
	// (sub-millisecond work; the 3s stall dwarfs the margin).
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled submission never entered the handler")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)

	start := time.Now()
	status, hdr, body := post(t, hs.URL, distinctRepo(1))
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: status %d, want 429 (body %s)", status, body)
	}
	// The hint is adaptive (see TestRetryAfterAdaptiveBounds): with the
	// single worker slot occupied and no waiters, load is half of the 2×
	// capacity ramp, so the 2s base scales by 4.5 to 9s — and must stay
	// within the contract's [base, 8×base] envelope.
	secs, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After = %q, want an integer", hdr.Get("Retry-After"))
	}
	if secs < 2 || secs > 16 {
		t.Fatalf("Retry-After = %d, want within [2, 16] (base 2s, cap 8×)", secs)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("429 took %v; backpressure must reject immediately", took)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("429 body not a structured error: %s", body)
	}
	<-firstDone
}

// TestRaceMixedTraffic hammers the service with overlapping duplicate
// submissions, distinct submissions, point GETs and corpus reads; run
// under -race it is the data-race canary for the whole handler surface.
func TestRaceMixedTraffic(t *testing.T) {
	_, hs := newService(t, server.Config{Corpus: testCorpus(t), MaxConcurrent: 8})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				switch j % 3 {
				case 0:
					post(t, hs.URL, submitRepo())
				case 1:
					post(t, hs.URL, distinctRepo(i))
				case 2:
					do(t, http.MethodGet, hs.URL+"/v1/corpus/stats", nil)
					do(t, http.MethodGet, hs.URL+"/metrics", nil)
				}
			}
		}(i)
	}
	wg.Wait()
}
