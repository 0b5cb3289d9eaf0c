package main

import (
	"context"
	"fmt"
	"time"

	"schemaevo/internal/core"
	"schemaevo/internal/corpus"
	"schemaevo/internal/diff"
	"schemaevo/internal/history"
	"schemaevo/internal/metrics"
	"schemaevo/internal/pipeline"
	"schemaevo/internal/quantize"
	"schemaevo/internal/schema"
	"schemaevo/internal/sqlddl"
	"schemaevo/internal/synth"
)

// corpusPassesPerSecond sizes the corpus run: --seconds × this many
// passes, rounded up to whole cycles through the corpora in every
// throughput window; about --seconds of work on a 2-core x86-64 host.
const corpusPassesPerSecond = 18

// corpusSeeds is how many paper corpora a run cycles through, one pass
// each in turn; corpus i comes from seed --seed×corpusSeeds+i. A pass's
// work varies by about ±10% with the corpus seed, so cycling several
// corpora keeps that out of the run-to-run spread.
const corpusSeeds = 6

// corpusReplayPasses is how many passes over the corpora the traced replay
// times per layer; each layer reports its median pass.
const corpusReplayPasses = 5

// paperExceptions is Table 2 of the paper: per pattern, the number of
// projects that violate their own pattern's formal definition.
var paperExceptions = map[core.Pattern]int{
	core.Sigmoid:      2,
	core.LateRiser:    1,
	core.QuantumSteps: 2,
	core.Siesta:       3,
}

// corpusState is one of the corpus workload's inputs: a paper corpus,
// analyzed once in set-up, with the labels of that reference pass.
type corpusState struct {
	c    *corpus.Corpus
	want []quantize.Labels
}

func corpusSetup(seed int64) ([]*corpusState, error) {
	var inputs []*corpusState
	for i := int64(0); i < corpusSeeds; i++ {
		c, err := synth.PaperCorpus(seed*corpusSeeds + i)
		if err != nil {
			return nil, err
		}
		if _, err := pipeline.Run(context.Background(), c, pipeline.Options{}); err != nil {
			return nil, fmt.Errorf("reference pass: %w", err)
		}
		st := &corpusState{c: c}
		if err := st.check(); err != nil {
			return nil, fmt.Errorf("reference pass: %w", err)
		}
		for _, p := range c.Projects {
			st.want = append(st.want, p.Labels)
		}
		st.reset()
		inputs = append(inputs, st)
	}
	return inputs, nil
}

// reset clears every project's derived fields, so the next pass must
// recompute them and only one corpus's results are live at a time.
func (st *corpusState) reset() {
	for _, p := range st.c.Projects {
		p.History, p.Measures, p.Labels, p.Analyzed = nil, metrics.Measures{}, quantize.Labels{}, false
	}
}

// check verifies one pass: every project analyzed, with the labels of the
// reference pass (when known), the paper's population per pattern, and
// exactly the paper's Table 2 exceptions and no overlaps.
func (st *corpusState) check() error {
	for i, p := range st.c.Projects {
		if !p.Analyzed {
			return fmt.Errorf("corpus: project %s not analyzed", p.Name)
		}
		if st.want != nil && p.Labels != st.want[i] {
			return fmt.Errorf("corpus: project %s labels differ from the reference pass", p.Name)
		}
	}
	pops := synth.PaperPopulations()
	for _, r := range core.Exceptions(st.c.Subjects()) {
		if r.Projects != pops[r.Pattern] || len(r.Exceptions) != paperExceptions[r.Pattern] || len(r.Overlaps) != 0 {
			return fmt.Errorf("corpus: %v has %d projects, %d exceptions, %d overlaps; want %d, %d, 0",
				r.Pattern, r.Projects, len(r.Exceptions), len(r.Overlaps), pops[r.Pattern], paperExceptions[r.Pattern])
		}
	}
	return nil
}

// runCorpus is the corpus workload: repeated pipeline.Run passes over
// 151-project paper corpora at the default shard count, with no cache.
func runCorpus(seed int64, seconds int, t *tally, m map[string]metric) error {
	inputs, setupS, err := repeatSetup(func() ([]*corpusState, error) { return corpusSetup(seed) }, func([]*corpusState) {})
	if err != nil {
		return err
	}
	cycle := windows * corpusSeeds
	passes := (seconds*corpusPassesPerSecond + cycle - 1) / cycle * cycle
	logs := make([]*opLog, corpusSeeds)
	for i := range logs {
		logs[i] = newOpLog(passes / corpusSeeds)
	}
	stolen, err := timed(func() error {
		ctx := context.Background()
		start := time.Now()
		for i := 0; i < passes; i++ {
			st := inputs[i%corpusSeeds]
			begin := time.Now()
			_, err := pipeline.Run(ctx, st.c, pipeline.Options{})
			logs[i%corpusSeeds].add(start, begin, time.Now())
			if err == nil {
				err = st.check()
			}
			st.reset()
			t.check(err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	endToEnd(m, setupS, summarizeByInput(float64(len(inputs[0].c.Projects)), logs), stolen)
	return nil
}

// corpusLayers times each analysis layer's public functions on a replay
// of the corpora, one goroutine, and adds the per-project means (the
// median of corpusReplayPasses passes) plus the trace coverage.
func corpusLayers(seed int64, t *tally, m map[string]metric) error {
	inputs, err := corpusSetup(seed)
	if err != nil {
		return err
	}
	names := []string{"sqlddl.lex_us", "sqlddl.parse_us", "schema.build_us", "diff.schemas_us",
		"history.assemble_us", "metrics.compute_us", "core.classify_us", "pipeline.run_us"}
	samples := map[string][]float64{}
	lx := sqlddl.NewLexer("")
	sess := sqlddl.NewSession()
	rc := schema.NewReconstructor()
	var n float64
	for _, st := range inputs {
		n += float64(len(st.c.Projects))
	}
	for pass := 0; pass < corpusReplayPasses; pass++ {
		var d [8]time.Duration
		for _, st := range inputs {
			replayCorpus(st, &d, lx, sess, rc, t)
		}
		for _, st := range inputs {
			begin := time.Now()
			_, err := pipeline.Run(context.Background(), st.c, pipeline.Options{Shards: 1})
			d[7] += time.Since(begin)
			if err == nil {
				err = st.check()
			}
			st.reset()
			t.check(err)
		}
		for i, name := range names {
			samples[name] = append(samples[name], us(d[i])/n)
		}
	}
	for _, name := range names {
		m[name] = metric{median(samples[name]), "us"}
	}
	// The top-level rows partition a project's analysis; lex and parse
	// nest inside schema.build, diff inside history.assemble.
	top := m["schema.build_us"].Value + m["history.assemble_us"].Value + m["metrics.compute_us"].Value + m["core.classify_us"].Value
	m["trace.coverage.corpus"] = metric{top / m["pipeline.run_us"].Value, "ratio"}
	return nil
}

// replayCorpus runs every project of one corpus through the layers one
// call at a time and adds each layer's time to d, in the row order of
// corpusLayers.
func replayCorpus(st *corpusState, d *[8]time.Duration, lx *sqlddl.Lexer, sess *sqlddl.Session, rc *schema.Reconstructor, t *tally) {
	scheme := quantize.DefaultScheme()
	var units []sqlddl.Unit
	for i, p := range st.c.Projects {
		path := p.Repo.MainDDLPath()
		versions := p.Repo.FileHistory(path)

		begin := time.Now()
		for _, v := range versions {
			lx.Reset(v.Content)
			for lx.Next().Kind != sqlddl.EOF {
			}
		}
		d[0] += time.Since(begin)

		sess.ClearCache()
		begin = time.Now()
		for _, v := range versions {
			units = sess.ParseUnits(v.Content, units[:0])
		}
		d[1] += time.Since(begin)

		begin = time.Now()
		parsed, err := history.ParseVersionsIn(rc, p.Repo, path, sqlddl.Generic)
		d[2] += time.Since(begin)
		if err != nil {
			t.fail("replay %s: %v", p.Name, err)
			continue
		}

		begin = time.Now()
		var prev *schema.Schema
		for _, pv := range parsed {
			diff.Schemas(prev, pv.Schema)
			prev = pv.Schema
		}
		d[3] += time.Since(begin)

		begin = time.Now()
		h := history.Assemble(p.Repo, path, parsed)
		d[4] += time.Since(begin)

		begin = time.Now()
		meas := metrics.Compute(h)
		verr := meas.Validate()
		d[5] += time.Since(begin)

		begin = time.Now()
		pat := core.Unclassified
		if meas.HasSchema {
			pat = core.Classify(quantize.Compute(meas, scheme))
		}
		d[6] += time.Since(begin)
		ref := core.Subject{Name: p.Name, Labels: st.want[i], Assigned: p.GroundTruth}
		if verr != nil || (pat != p.GroundTruth && !ref.IsException()) {
			t.fail("replay %s: classified %v, want %v (%v)", p.Name, pat, p.GroundTruth, verr)
			continue
		}
		t.ok()
	}
}
