package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"schemaevo/internal/core"
	"schemaevo/internal/corpus"
	"schemaevo/internal/metrics"
	"schemaevo/internal/pipeline"
	"schemaevo/internal/quantize"
	"schemaevo/internal/store"
	"schemaevo/internal/synth"
	"schemaevo/internal/telemetry"
	"schemaevo/internal/vcs"
)

// ingestProjects is the ingest workload's live project count; they fit
// the store's default 1024-entry hot tier.
const ingestProjects = 256

// ingestStrata is how many pool projects stand behind each ingest
// project: the 256 are a stratified sample of a seeded pool this many
// times larger (see ingestSample).
const ingestStrata = 16

// ingestPushesPerSecond sizes the ingest run: --seconds × this many
// pushes, about --seconds of work on a 2-core x86-64 host.
const ingestPushesPerSecond = 1950

// ingestProject is one project's push material, encoded once in set-up.
type ingestProject struct {
	base string
	// joined is every commit's JSON, comma-separated; ends[k] is the
	// length of its prefix through commit k.
	joined []byte
	ends   []int
	// first is the commit that first carries the DDL file: a generation's
	// first push ends there, since a history without a schema file is
	// refused.
	first int
	// pattern is pipeline.AnalyzeRepo's pattern for the full history.
	pattern string
}

// body builds the push of commits 0..k under generation gen's name by
// byte concatenation.
func (p *ingestProject) body(buf []byte, gen, k int) []byte {
	buf = append(buf[:0], `{"name":"`...)
	buf = append(buf, p.base...)
	buf = append(buf, "-g"...)
	buf = strconv.AppendInt(buf, int64(gen), 10)
	buf = append(buf, `","commits":[`...)
	buf = append(buf, p.joined[:p.ends[k]]...)
	return append(buf, "]}"...)
}

// push is one planned op: commits 0..k of project proj, generation gen.
type push struct{ proj, k, gen int }

// final reports whether the push completes its project's history.
func (op push) final(projects []ingestProject) bool {
	return op.k == len(projects[op.proj].ends)-1
}

// ingestState is a set-up ingest run: the inputs, each client's fixed op
// sequence, and a server on a fresh store directory.
type ingestState struct {
	projects []ingestProject
	plans    [clients][]push
	dir      string
	sv       *service
}

// ingestInputs generates the projects and the clients' op sequences. Each
// client owns every clients-th project and pushes its projects
// round-robin, one commit per push; a finished project starts again under
// the next generation's name.
func ingestInputs(seed int64, pushes int) ([]ingestProject, [clients][]push, error) {
	var plans [clients][]push
	sample, err := ingestSample(seed)
	if err != nil {
		return nil, plans, err
	}
	projects := make([]ingestProject, len(sample))
	for i, cp := range sample {
		p := &projects[i]
		p.base = cp.Name
		if name, _ := json.Marshal(p.base); string(name) != strconv.Quote(p.base) || bytes.ContainsAny(name, `\`) {
			return nil, plans, fmt.Errorf("ingest: project name %q needs escaping", p.base)
		}
		ddl := cp.Repo.MainDDLPath()
		p.first = -1
		for k := range cp.Repo.Commits {
			if _, ok := cp.Repo.Commits[k].Files[ddl]; ok && p.first < 0 {
				p.first = k
			}
			enc, err := json.Marshal(&cp.Repo.Commits[k])
			if err != nil {
				return nil, plans, err
			}
			if k > 0 {
				p.joined = append(p.joined, ',')
			}
			p.joined = append(p.joined, enc...)
			p.ends = append(p.ends, len(p.joined))
		}
		res, _, err := pipeline.AnalyzeRepo(context.Background(), cp.Repo, pipeline.Options{})
		if err != nil {
			return nil, plans, fmt.Errorf("ingest: reference analysis: %w", err)
		}
		p.pattern = patternOf(res.Measures).String()
	}
	for cl := 0; cl < clients; cl++ {
		var owned []int
		for i := cl; i < len(projects); i += clients {
			owned = append(owned, i)
		}
		next := make([]int, len(projects))
		gen := make([]int, len(projects))
		for _, j := range owned {
			next[j] = projects[j].first
		}
		for i := 0; i < pushes/clients; i++ {
			j := owned[i%len(owned)]
			plans[cl] = append(plans[cl], push{proj: j, k: next[j], gen: gen[j]})
			if next[j]++; next[j] == len(projects[j].ends) {
				next[j] = projects[j].first
				gen[j]++
			}
		}
	}
	return projects, plans, nil
}

// ingestSample draws the ingest projects from synth.RandomCorpus(
// ingestStrata×ingestProjects, seed): the pool is ranked by the bytes one
// generation of pushes carries, and the middle project of every
// ingestStrata consecutive ranks is taken. Project sizes are heavy-tailed,
// so a plain 256-project corpus moves a run's mean push body by about
// ±11% with the seed; the stratified sample keeps the pool's size
// distribution and halves that.
func ingestSample(seed int64) ([]*corpus.Project, error) {
	pool, err := synth.RandomCorpus(ingestStrata*ingestProjects, seed)
	if err != nil {
		return nil, err
	}
	weight := make(map[*corpus.Project]int, len(pool.Projects))
	for _, p := range pool.Projects {
		ddl := p.Repo.MainDDLPath()
		prefix, seen := 0, false
		for _, c := range p.Repo.Commits {
			for _, content := range c.Files {
				prefix += len(content)
			}
			_, touches := c.Files[ddl]
			if seen = seen || touches; seen {
				weight[p] += prefix
			}
		}
	}
	ranked := append([]*corpus.Project(nil), pool.Projects...)
	sort.SliceStable(ranked, func(i, j int) bool { return weight[ranked[i]] < weight[ranked[j]] })
	sample := make([]*corpus.Project, ingestProjects)
	for i := range sample {
		sample[i] = ranked[i*ingestStrata+ingestStrata/2]
	}
	return sample, nil
}

// patternOf is the pattern the server assigns an analysis: the
// definitional match, else the nearest definition.
func patternOf(m metrics.Measures) core.Pattern {
	if !m.HasSchema {
		return core.Unclassified
	}
	l := quantize.Compute(m, quantize.DefaultScheme())
	if p := core.Classify(l); p != core.Unclassified {
		return p
	}
	return core.ClassifyNearest(l)
}

func ingestSetup(seed int64, pushes int) (*ingestState, error) {
	projects, plans, err := ingestInputs(seed, pushes)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "perfbench-ingest-")
	if err != nil {
		return nil, err
	}
	sv, err := startService(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &ingestState{projects: projects, plans: plans, dir: dir, sv: sv}, nil
}

func (st *ingestState) close() {
	if err := st.sv.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing ingest server:", err)
	}
	os.RemoveAll(st.dir)
}

// pushReply is the part of a push's reply the checks read.
type pushReply struct {
	ID      string `json:"id"`
	Pattern string `json:"pattern"`
}

// drive runs every client's op sequence against the server, closed loop,
// and returns the request-body bytes pushed. A generation's first push
// must be a full analysis (X-Cache: miss) and every later one
// incremental; a final push must carry the reference pattern and is
// followed by a DELETE of the project.
func (st *ingestState) drive(t *tally, logs [clients]*opLog) int64 {
	var wg sync.WaitGroup
	var pushed atomic.Int64
	start := time.Now()
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := newClient(st.sv.base)
			defer c.close()
			var buf []byte
			var n int64
			for _, op := range st.plans[cl] {
				p := &st.projects[op.proj]
				buf = p.body(buf, op.gen, op.k)
				n += int64(len(buf))
				begin := time.Now()
				resp, body, err := c.do("POST", "/v1/projects", buf, "")
				logs[cl].add(start, begin, time.Now())
				id, err := checkPush(resp, body, err, op, st.projects)
				t.check(err)
				if id == "" {
					continue
				}
				resp, body, err = c.do("DELETE", "/v1/projects/"+id, nil, "")
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("DELETE %s: status %d: %s", id, resp.StatusCode, body)
				}
				t.check(err)
			}
			if d := c.dials.Load(); d != 1 {
				t.fail("ingest client %d dialled %d connections, want 1", cl, d)
			}
			pushed.Add(n)
		}(cl)
	}
	wg.Wait()
	return pushed.Load()
}

// checkPush verifies one push's reply; for a final push it returns the
// project ID to delete.
func checkPush(resp *http.Response, body []byte, err error, op push, projects []ingestProject) (string, error) {
	if err != nil {
		return "", err
	}
	p := &projects[op.proj]
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("push %s-g%d #%d: status %d: %s", p.base, op.gen, op.k, resp.StatusCode, body)
	}
	want := "incremental"
	if op.k == p.first {
		want = "miss"
	}
	if got := resp.Header.Get("X-Cache"); got != want {
		return "", fmt.Errorf("push %s-g%d #%d: X-Cache %q, want %q", p.base, op.gen, op.k, got, want)
	}
	if !op.final(projects) {
		return "", nil
	}
	var r pushReply
	if err := json.Unmarshal(body, &r); err != nil {
		return "", fmt.Errorf("push %s-g%d #%d: %w", p.base, op.gen, op.k, err)
	}
	if r.Pattern != p.pattern || r.ID == "" {
		return "", fmt.Errorf("push %s-g%d final: pattern %q, want %q", p.base, op.gen, r.Pattern, p.pattern)
	}
	return r.ID, nil
}

// runIngest is the ingest workload: 2 closed-loop clients push growing
// histories of their own projects through POST /v1/projects.
func runIngest(seed int64, seconds int, t *tally, m map[string]metric) error {
	pushes := seconds * ingestPushesPerSecond
	st, setupS, err := repeatSetup(func() (*ingestState, error) { return ingestSetup(seed, pushes) }, (*ingestState).close)
	if err != nil {
		return err
	}
	defer st.close()
	logs := newLogs(pushes)
	var before, after *telemetry.Report
	var pushed int64
	stolen, err := timed(func() (err error) {
		before, after, err = sampled(st.sv.base, func() { pushed = st.drive(t, logs) })
		return err
	})
	if err != nil {
		return err
	}
	endToEnd(m, setupS, summarize(1, logs[:]...), stolen)
	fmt.Printf("%-36s %16.4f B/B (per-layer metric, shown for reference)\n", "write_amp",
		ratio(float64(after.Store.BytesWritten-before.Store.BytesWritten), float64(pushed)))
	return nil
}

// ingestLayers adds the ingest per-layer table: the server's /metrics
// counters sampled around one full ingest run, then a replay of the same
// push sequences through each layer's public functions (see ingestReplay).
func ingestLayers(seed int64, seconds int, t *tally, m map[string]metric) error {
	pushes := seconds * ingestPushesPerSecond
	st, err := ingestSetup(seed, pushes)
	if err != nil {
		return err
	}
	defer st.close()
	logs := newLogs(pushes)
	var pushed int64
	before, after, err := sampled(st.sv.base, func() { pushed = st.drive(t, logs) })
	if err != nil {
		return err
	}
	n := float64(len(st.plans[0]) + len(st.plans[1]))
	written := float64(after.Store.BytesWritten - before.Store.BytesWritten)
	hot := float64(after.Store.HotHits - before.Store.HotHits)
	hotMiss := float64(after.Store.HotMisses - before.Store.HotMisses)
	submits := float64(stage(after, "http.submit").Jobs - stage(before, "http.submit").Jobs)
	incr := float64(stage(after, "analyze.incr").Jobs - stage(before, "analyze.incr").Jobs)
	submitBusy := busyPerJob(before, after, "http.submit")
	m["write_amp"] = metric{ratio(written, float64(pushed)), "B/B"}
	m["store.bytes_written_per_op"] = metric{written / n, "B"}
	m["store.compactions"] = metric{float64(after.Store.Compactions - before.Store.Compactions), "count"}
	m["store.hot_hit_rate"] = metric{ratio(hot, hot+hotMiss), "ratio"}
	m["server.incremental_share"] = metric{ratio(incr, submits), "ratio"}
	m["server.submit_busy_us"] = metric{submitBusy, "us"}

	rows, err := ingestReplay(st, t)
	if err != nil {
		return err
	}
	var sum float64
	for name, d := range rows {
		v := us(d) / n
		m[name] = metric{v, "us"}
		sum += v
	}
	m["trace.coverage.ingest"] = metric{ratio(sum, submitBusy), "ratio"}
	return nil
}

// ingestRows are the replay's per-layer rows, in submit-path order.
var ingestRows = []string{"server.body_decode_us", "pipeline.fingerprint_us", "store.get_us",
	"pipeline.decode_result_us", "pipeline.decode_repo_us", "pipeline.extend_us", "pipeline.analyze_us",
	"pipeline.encode_result_us", "pipeline.encode_repo_us", "store.put_us", "store.delete_us"}

// laps charges the time between successive laps to named rows.
type laps struct {
	rows  map[string]time.Duration
	begin time.Time
}

func (l *laps) start() { l.begin = time.Now() }

func (l *laps) lap(name string) {
	now := time.Now()
	l.rows[name] += now.Sub(l.begin)
	l.begin = now
}

// ingestReplay runs each client's push sequence, on its own goroutine as
// in the drive, through the steps of the server's submit path against a
// store in a temporary directory, and returns each step's total time.
func ingestReplay(st *ingestState, t *tally) (map[string]time.Duration, error) {
	dir, err := os.MkdirTemp("", "perfbench-replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tel := telemetry.New()
	s, err := store.Open(store.Config{Dir: dir, Telemetry: tel})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	rows := map[string]time.Duration{}
	for _, name := range ingestRows {
		rows[name] = 0
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			l := &laps{rows: map[string]time.Duration{}}
			var buf []byte
			for _, op := range st.plans[cl] {
				buf = st.projects[op.proj].body(buf, op.gen, op.k)
				t.check(replayPush(s, tel, buf, op, st.projects, l))
			}
			mu.Lock()
			for name, d := range l.rows {
				rows[name] += d
			}
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	return rows, nil
}

// replayPush is one push through the submit path's steps, each charged to
// its row.
func replayPush(s *store.Store, tel *telemetry.Collector, body []byte, op push, projects []ingestProject, l *laps) error {
	l.start()
	var repo vcs.Repo
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&repo); err != nil {
		return err
	}
	l.lap("server.body_decode_us")

	fp := pipeline.FingerprintDialect(&repo, "")
	id := fp[:corpus.IDLen]
	l.lap("pipeline.fingerprint_us")

	var res *pipeline.CachedResult
	_, _, _ = s.Get(id)
	prevID, havePrev := s.LatestID(repo.Name)
	var prevData, src []byte
	if havePrev {
		var ok1, ok2 bool
		prevData, _, ok1 = s.Get(prevID)
		src, ok2 = s.Source(prevID)
		havePrev = ok1 && ok2
	}
	l.lap("store.get_us")

	if havePrev {
		prev, err := pipeline.DecodeResult(prevData)
		if err != nil {
			return err
		}
		l.lap("pipeline.decode_result_us")
		prevRepo, err := pipeline.DecodeRepo(src)
		if err != nil {
			return err
		}
		l.lap("pipeline.decode_repo_us")
		var ok bool
		if res, ok = pipeline.ExtendResult(prev, prevRepo, &repo); !ok {
			return fmt.Errorf("replay %s #%d: incremental analysis declined", repo.Name, op.k)
		}
		l.lap("pipeline.extend_us")
	} else {
		if op.k != projects[op.proj].first {
			return fmt.Errorf("replay %s #%d: no previous version stored", repo.Name, op.k)
		}
		r, _, err := pipeline.AnalyzeRepo(context.Background(), &repo, pipeline.Options{Telemetry: tel})
		if err != nil {
			return err
		}
		res = &pipeline.CachedResult{Fingerprint: fp, Project: repo.Name, History: r.History, Measures: r.Measures}
		l.lap("pipeline.analyze_us")
	}

	result := pipeline.EncodeResult(res)
	l.lap("pipeline.encode_result_us")
	source := pipeline.EncodeRepo(&repo)
	l.lap("pipeline.encode_repo_us")
	if _, err := s.Put(store.Entry{ID: id, Name: repo.Name, Fingerprint: fp, Source: source, Result: result}); err != nil {
		return err
	}
	l.lap("store.put_us")

	if !op.final(projects) {
		return nil
	}
	if ok, err := s.Delete(id); err != nil || !ok {
		return fmt.Errorf("replay delete %s: %v", id, err)
	}
	l.lap("store.delete_us")
	if got := patternOf(res.Measures).String(); got != projects[op.proj].pattern {
		return fmt.Errorf("replay %s final: pattern %q, want %q", repo.Name, got, projects[op.proj].pattern)
	}
	return nil
}
