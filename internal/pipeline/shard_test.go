package pipeline

import (
	"context"
	"runtime"
	"testing"

	"schemaevo/internal/corpus"
	"schemaevo/internal/quantize"
)

// TestResolveShards pins the shard-count resolution: an explicit count
// wins, <= 0 selects GOMAXPROCS, and the result is clamped to the project
// count but never below one (an empty corpus still resolves one shard).
func TestResolveShards(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name   string
		shards int
		jobs   int
		want   int
	}{
		{"explicit", 3, 100, 3},
		{"explicit-clamped-to-jobs", 64, 2, 2},
		{"default-gomaxprocs", 0, 1 << 20, gmp},
		{"negative-gomaxprocs", -1, 1 << 20, gmp},
		{"single-project-degenerates", 16, 1, 1},
		{"empty-corpus", 0, 0, gmp},
	} {
		if got := resolveShards(tc.shards, tc.jobs); got != tc.want {
			t.Errorf("%s: resolveShards = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestRunEmptyCorpus pins the degenerate run: no projects, the default
// shard count, no error and nothing analyzed.
func TestRunEmptyCorpus(t *testing.T) {
	stats, err := Run(context.Background(), &corpus.Corpus{}, Options{Shards: 0})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Projects != 0 || stats.Analyzed != 0 || stats.Failed != 0 {
		t.Fatalf("stats = %+v, want an empty run", stats)
	}
}

// TestShardForDeterministic pins that project→shard assignment depends
// only on the name and shard count, and lands in range.
func TestShardForDeterministic(t *testing.T) {
	names := []string{"", "a", "proj-1", "proj-2", "some/long/project/name"}
	for _, n := range names {
		for _, shards := range []int{1, 2, 7, 16} {
			s := shardFor(n, shards)
			if s < 0 || s >= shards {
				t.Fatalf("shardFor(%q, %d) = %d out of range", n, shards, s)
			}
			if again := shardFor(n, shards); again != s {
				t.Fatalf("shardFor(%q, %d) not deterministic: %d vs %d", n, shards, s, again)
			}
		}
	}
}

// TestPipelineSingleShardSequentialPath pins that a run with one shard
// (explicitly, or by default under GOMAXPROCS=1) selects the sequential
// execution path — Stats reports exactly one shard, and the results are
// identical to the sequential Analyze. The throughput side of the pin
// (pipeline >= sequential at GOMAXPROCS=1) is enforced by
// cmd/benchpipe -check, which CI runs at GOMAXPROCS 1 and 2.
func TestPipelineSingleShardSequentialPath(t *testing.T) {
	scheme := quantize.DefaultScheme()
	seq := paperCorpus(t, 11)
	if err := seq.Analyze(scheme); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{Shards: 1}, {}} {
		if opts.Shards == 0 {
			// Shards unset under GOMAXPROCS=1 resolves the same single shard.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		}
		piped := paperCorpus(t, 11)
		stats, err := Run(context.Background(), piped, opts)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Shards != 1 {
			t.Fatalf("opts %+v: ran with %d shards, want the sequential path (1)", opts, stats.Shards)
		}
		assertSameAnalysis(t, "seq vs single-shard pipeline", seq, piped)
	}
}

// TestPipelineExplicitShards pins that Options.Shards drives the run and
// preserves equivalence at several counts (including counts above the
// core count — shards are goroutines, not cores).
func TestPipelineExplicitShards(t *testing.T) {
	scheme := quantize.DefaultScheme()
	seq := paperCorpus(t, 12)
	if err := seq.Analyze(scheme); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 8} {
		piped := paperCorpus(t, 12)
		stats, err := Run(context.Background(), piped, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		want := shards
		if n := piped.Len(); want > n {
			want = n
		}
		if stats.Shards != want {
			t.Fatalf("shards=%d: stats.Shards = %d, want %d", shards, stats.Shards, want)
		}
		if stats.Analyzed != piped.Len() {
			t.Fatalf("shards=%d: analyzed %d of %d", shards, stats.Analyzed, piped.Len())
		}
		assertSameAnalysis(t, "seq vs sharded pipeline", seq, piped)
	}
}
