package corpus_test

// The corpus's parallel analysis is pipeline.Run with more than one
// shard; these tests hold it to the sequential Corpus.Analyze reference.
// They live in the external test package because pipeline imports corpus.

import (
	"context"
	"strings"
	"testing"

	"schemaevo/internal/core"
	"schemaevo/internal/corpus"
	"schemaevo/internal/pipeline"
	"schemaevo/internal/quantize"
	"schemaevo/internal/vcs"
)

func noDDL(name string) *vcs.Repo {
	return &vcs.Repo{Name: name, Commits: []vcs.Commit{
		{ID: "0", Time: corpus.Day(2020, 1, 1), Files: map[string]string{"main.go": "x"}},
	}}
}

func TestAnalyzeParallelMatchesSequential(t *testing.T) {
	build := func() *corpus.Corpus {
		c := &corpus.Corpus{}
		for i := 0; i < 20; i++ {
			name := "p" + string(rune('a'+i))
			c.Projects = append(c.Projects, &corpus.Project{
				Name: name, Repo: corpus.FlatRepo(name, 14+i), GroundTruth: core.Flatliner,
			})
		}
		return c
	}
	seq, par := build(), build()
	if err := seq.Analyze(quantize.DefaultScheme()); err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.Run(context.Background(), par, pipeline.Options{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	for i := range seq.Projects {
		a, b := seq.Projects[i].Measures, par.Projects[i].Measures
		if a.BirthMonth != b.BirthMonth || a.TotalActivity != b.TotalActivity ||
			a.PUPMonths != b.PUPMonths {
			t.Errorf("project %d: sequential and parallel measures differ", i)
		}
		if seq.Projects[i].Labels != par.Projects[i].Labels {
			t.Errorf("project %d: labels differ", i)
		}
	}
}

func TestAnalyzeParallelPropagatesErrors(t *testing.T) {
	c := &corpus.Corpus{Projects: []*corpus.Project{
		{Name: "ok", Repo: corpus.FlatRepo("ok", 20)},
		{Name: "bad", Repo: noDDL("bad")},
		{Name: "ok2", Repo: corpus.FlatRepo("ok2", 20)},
	}}
	if _, err := pipeline.Run(context.Background(), c, pipeline.Options{Shards: 3}); err == nil {
		t.Error("expected an error from the bad project")
	}
}

// TestAnalyzeParallelAggregatesAllFailures: with several failing projects,
// every failure must be present in the joined error, in corpus order, and
// the healthy projects must still be analyzed.
func TestAnalyzeParallelAggregatesAllFailures(t *testing.T) {
	c := &corpus.Corpus{Projects: []*corpus.Project{
		{Name: "bad-alpha", Repo: noDDL("bad-alpha")},
		{Name: "ok", Repo: corpus.FlatRepo("ok", 20)},
		{Name: "bad-beta", Repo: noDDL("bad-beta")},
		{Name: "bad-gamma", Repo: noDDL("bad-gamma")},
	}}
	_, err := pipeline.Run(context.Background(), c, pipeline.Options{Shards: 4})
	if err == nil {
		t.Fatal("expected an error")
	}
	msg := err.Error()
	for _, name := range []string{"bad-alpha", "bad-beta", "bad-gamma"} {
		if !strings.Contains(msg, name) {
			t.Errorf("aggregated error does not mention %q:\n%s", name, msg)
		}
	}
	// Corpus-order aggregation: alpha before beta before gamma.
	if a, b, g := strings.Index(msg, "bad-alpha"), strings.Index(msg, "bad-beta"),
		strings.Index(msg, "bad-gamma"); !(a < b && b < g) {
		t.Errorf("failures not in corpus order:\n%s", msg)
	}
	if !c.Projects[1].Analyzed {
		t.Error("healthy project was not analyzed")
	}
}
