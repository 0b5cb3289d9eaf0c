package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"schemaevo/internal/synth"
)

// readProjects is how many distinct projects the read set-up submits.
const readProjects = 2048

// readRequestsPerSecond sizes the read run: --seconds × this many
// requests, about --seconds of work on a 2-core x86-64 host.
const readRequestsPerSecond = 25000

// Read op kinds; the mix is 80% project GETs, 15% conditional project
// GETs and 5% corpus aggregate GETs.
const (
	readGet = iota
	readConditional
	readStats
	readPatterns
)

// readOp is one planned request: a kind and, for project GETs, the index
// of the project.
type readOp struct {
	kind uint8
	idx  int32
}

// readState is a set-up read run: the submitted projects' IDs and ETags,
// each client's fixed request sequence, and a server reopened on the
// populated store directory.
type readState struct {
	ids, etags []string
	plans      [clients][]readOp
	dir        string
	sv         *service
	openMS     float64
}

// readSetup submits readProjects distinct projects, closes the server and
// reopens it on the same store directory, so every project's first read
// goes through the store's disk tier.
func readSetup(seed int64, requests int) (*readState, error) {
	c, err := synth.RandomCorpus(readProjects, seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "perfbench-read-")
	if err != nil {
		return nil, err
	}
	st := &readState{ids: make([]string, readProjects), etags: make([]string, readProjects), dir: dir}
	sv, err := startService(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		go func(cl int) {
			cli := newClient(sv.base)
			defer cli.close()
			for i := cl; i < readProjects; i += clients {
				body, err := json.Marshal(c.Projects[i].Repo)
				if err != nil {
					errs <- err
					return
				}
				resp, reply, err := cli.do("POST", "/v1/projects", body, "")
				if err != nil {
					errs <- err
					return
				}
				var r pushReply
				if resp.StatusCode != http.StatusOK || json.Unmarshal(reply, &r) != nil || r.ID == "" {
					errs <- fmt.Errorf("read set-up: submit %s: status %d: %s", c.Projects[i].Name, resp.StatusCode, reply)
					return
				}
				st.ids[i], st.etags[i] = r.ID, resp.Header.Get("ETag")
			}
			errs <- nil
		}(cl)
	}
	for cl := 0; cl < clients; cl++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if cerr := sv.close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}

	begin := time.Now()
	if st.sv, err = startService(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	st.openMS = float64(time.Since(begin).Nanoseconds()) / 1e6

	for cl := 0; cl < clients; cl++ {
		rng := rand.New(rand.NewSource(seed*clients + int64(cl)))
		plan := make([]readOp, requests/clients)
		for i := range plan {
			op := readOp{idx: int32(cl + clients*rng.Intn(readProjects/clients))}
			switch r := rng.Intn(100); {
			case r < 80:
				op.kind = readGet
			case r < 95:
				op.kind = readConditional
			case r%2 == 0:
				op.kind = readStats
			default:
				op.kind = readPatterns
			}
			plan[i] = op
		}
		st.plans[cl] = plan
	}
	return st, nil
}

func (st *readState) close() {
	if err := st.sv.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing read server:", err)
	}
	os.RemoveAll(st.dir)
}

// drive runs every client's request sequence, closed loop, and returns
// the mean client-side latency of project GETs in microseconds.
func (st *readState) drive(t *tally, logs [clients]*opLog) float64 {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var projectUS float64
	var projectN int
	start := time.Now()
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := newClient(st.sv.base)
			defer c.close()
			var verifiedStats []byte
			var sumUS float64
			var n int
			for _, op := range st.plans[cl] {
				var path, inm string
				switch op.kind {
				case readGet:
					path = "/v1/projects/" + st.ids[op.idx]
				case readConditional:
					path, inm = "/v1/projects/"+st.ids[op.idx], st.etags[op.idx]
				case readStats:
					path = "/v1/corpus/stats"
				case readPatterns:
					path = "/v1/corpus/patterns"
				}
				begin := time.Now()
				resp, body, err := c.do("GET", path, nil, inm)
				end := time.Now()
				logs[cl].add(start, begin, end)
				if op.kind == readGet || op.kind == readConditional {
					sumUS += us(end.Sub(begin))
					n++
				}
				if err == nil {
					err = st.checkRead(op, resp, body, &verifiedStats)
				}
				t.check(err)
			}
			if d := c.dials.Load(); d != 1 {
				t.fail("read client %d dialled %d connections, want 1", cl, d)
			}
			mu.Lock()
			projectUS += sumUS
			projectN += n
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	return ratio(projectUS, float64(projectN))
}

// checkRead verifies one reply: a 304 has an empty body, a 200 body
// matches its ETag (and a project's the ETag of its submission), and the
// stats document counts every submitted project. verified holds the last
// stats body already checked, so an unchanged document is compared, not
// re-parsed.
func (st *readState) checkRead(op readOp, resp *http.Response, body []byte, verified *[]byte) error {
	etag := resp.Header.Get("ETag")
	if op.kind == readConditional {
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			return fmt.Errorf("conditional GET %s: status %d with %d body bytes, want 304 and none", st.ids[op.idx], resp.StatusCode, len(body))
		}
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET op %d: status %d: %s", op.kind, resp.StatusCode, body)
	}
	if got := etagOf(body); got != etag {
		return fmt.Errorf("GET op %d: body hashes to %s, ETag says %s", op.kind, got, etag)
	}
	switch op.kind {
	case readGet:
		if etag != st.etags[op.idx] {
			return fmt.Errorf("GET %s: ETag %s, submission had %s", st.ids[op.idx], etag, st.etags[op.idx])
		}
	case readStats:
		if bytes.Equal(body, *verified) {
			return nil
		}
		var doc struct {
			Projects int `json:"projects"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return fmt.Errorf("GET stats: %w", err)
		}
		if doc.Projects != readProjects {
			return fmt.Errorf("GET stats: %d projects, want %d", doc.Projects, readProjects)
		}
		*verified = append((*verified)[:0], body...)
	}
	return nil
}

// runRead is the read workload: 2 closed-loop clients GET the projects
// they own from a freshly reopened server.
func runRead(seed int64, seconds int, t *tally, m map[string]metric) error {
	requests := seconds * readRequestsPerSecond
	st, setupS, err := repeatSetup(func() (*readState, error) { return readSetup(seed, requests) }, (*readState).close)
	if err != nil {
		return err
	}
	defer st.close()
	logs := newLogs(requests)
	stolen, err := timed(func() error {
		st.drive(t, logs)
		return nil
	})
	if err != nil {
		return err
	}
	endToEnd(m, setupS, summarize(1, logs[:]...), stolen)
	return nil
}

// readLayers adds the read per-layer table: the server's /metrics
// counters sampled around one full read run, and the timed reopen.
func readLayers(seed int64, seconds int, t *tally, m map[string]metric) error {
	requests := seconds * readRequestsPerSecond
	st, err := readSetup(seed, requests)
	if err != nil {
		return err
	}
	defer st.close()
	logs := newLogs(requests)
	var projectUS float64
	before, after, err := sampled(st.sv.base, func() { projectUS = st.drive(t, logs) })
	if err != nil {
		return err
	}
	busy := busyPerJob(before, after, "http.project")
	hits := float64(after.Render.Hits - before.Render.Hits)
	misses := float64(after.Render.Misses - before.Render.Misses)
	m["server.project_busy_us"] = metric{busy, "us"}
	m["server.project_queue_wait_us"] = metric{projectUS - busy, "us"}
	m["render.hit_rate"] = metric{ratio(hits, hits+misses), "ratio"}
	m["render.misses"] = metric{misses, "count"}
	m["render.not_modified"] = metric{float64(after.Render.NotModified - before.Render.NotModified), "count"}
	m["store.disk_hits"] = metric{float64(after.Store.DiskHits - before.Store.DiskHits), "count"}
	m["telemetry.span_count"] = metric{float64(after.SpanCount), "count"}
	m["telemetry.spans_dropped"] = metric{float64(after.SpansDropped), "count"}
	m["store.open_ms"] = metric{st.openMS, "ms"}
	return nil
}

// runTrace prints the per-layer table of all three workloads: the corpus
// replay, the ingest counters and replay, and the read counters.
func runTrace(seed int64, seconds int, t *tally, m map[string]metric) error {
	if err := corpusLayers(seed, t, m); err != nil {
		return err
	}
	if err := ingestLayers(seed, seconds, t, m); err != nil {
		return err
	}
	return readLayers(seed, seconds, t, m)
}
