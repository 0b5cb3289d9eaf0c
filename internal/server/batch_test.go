// Tests for the streaming NDJSON batch endpoint: per-line results in
// input order, error isolation, the oversized-line guard, and blocking
// backpressure.
package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"schemaevo/internal/server"
)

// batchLine mirrors the per-line wire shape (and the summary, which
// shares the Status field).
type batchLine struct {
	Line    int    `json:"line"`
	Status  string `json:"status"`
	ID      string `json:"id"`
	Project string `json:"project"`
	Pattern string `json:"pattern"`
	Cache   string `json:"cache"`
	Error   string `json:"error"`
	Lines   int    `json:"lines"`
	OK      int    `json:"ok"`
	Errors  int    `json:"errors"`
}

// postBatch sends raw NDJSON and decodes every response line.
func postBatch(t *testing.T, baseURL, body string) (int, []batchLine) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/projects:batch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []batchLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var l batchLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("unparseable batch line %q: %v", sc.Bytes(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, lines
}

func ndjson(t *testing.T, repos ...any) string {
	t.Helper()
	var b strings.Builder
	for _, r := range repos {
		switch v := r.(type) {
		case string:
			b.WriteString(v)
		default:
			data, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(data)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestBatchMixedLines drives one batch through every per-line outcome:
// fresh analysis, duplicate (cache hit), version extension
// (incremental), malformed JSON, an invalid repo, a history with no DDL
// file, and a blank line —
// asserting each response line lands on the right input line number and
// the summary tallies them.
func TestBatchMixedLines(t *testing.T) {
	srv, hs := newService(t, server.Config{})

	v4 := evolvingRepo("batch-project", 4)
	v5 := evolvingRepo("batch-project", 5)
	body := ndjson(t,
		v4,                                   // line 1: ok, miss
		"",                                   // line 2: blank, skipped
		v4,                                   // line 3: ok, hit
		`{"name": 42}`,                       // line 4: invalid JSON shape
		v5,                                   // line 5: ok, incremental
		`{"name":"no-commits","commits":[]}`, // line 6: fails validation
		noDDLRepo(),                          // line 7: nothing to analyze
	)
	status, lines := postBatch(t, hs.URL, body)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", status)
	}
	if len(lines) != 7 {
		t.Fatalf("got %d response lines, want 6 results + summary:\n%+v", len(lines), lines)
	}

	type want struct {
		line   int
		status string
		cache  string
	}
	wants := []want{
		{1, "ok", "miss"},
		{3, "ok", "hit"},
		{4, "error", ""},
		{5, "ok", "incremental"},
		{6, "error", ""},
		{7, "error", ""},
	}
	for i, w := range wants {
		got := lines[i]
		if got.Line != w.line || got.Status != w.status {
			t.Errorf("response %d = line %d %q, want line %d %q", i, got.Line, got.Status, w.line, w.status)
		}
		if w.status == "ok" {
			if got.Cache != w.cache {
				t.Errorf("line %d cache = %q, want %q", w.line, got.Cache, w.cache)
			}
			if got.ID == "" || got.Project != "batch-project" || got.Pattern == "" {
				t.Errorf("line %d missing payload fields: %+v", w.line, got)
			}
		} else if got.Error == "" {
			t.Errorf("line %d error line carries no message", w.line)
		}
	}
	sum := lines[len(lines)-1]
	if sum.Status != "summary" || sum.Lines != 7 || sum.OK != 3 || sum.Errors != 3 {
		t.Fatalf("summary = %+v, want lines=7 ok=3 errors=3", sum)
	}
	if msg := lines[5].Error; !strings.Contains(msg, "no DDL file") {
		t.Errorf("no-DDL line error = %q, want it to name the missing DDL file", msg)
	}

	// The batch fed the same store as single submissions: v5 superseded
	// v4, one live project, one full analysis plus one incremental.
	if srv.Stored() != 1 {
		t.Fatalf("Stored = %d, want 1", srv.Stored())
	}
	if srv.Analyses() != 1 || srv.Incrementals() != 1 {
		t.Fatalf("analyses = %d/%d incremental, want 1/1", srv.Analyses(), srv.Incrementals())
	}
}

// TestBatchOversizedLine pins the scanner guard: a line over
// MaxLineBytes terminates the stream with a descriptive error line and
// a summary, not a hung connection or a silent truncation.
func TestBatchOversizedLine(t *testing.T) {
	_, hs := newService(t, server.Config{MaxLineBytes: 1 << 10})

	big := fmt.Sprintf(`{"name":"big","commits":[],"pad":%q}`, strings.Repeat("x", 4<<10))
	body := ndjson(t, evolvingRepo("small-project", 4), big)
	status, lines := postBatch(t, hs.URL, body)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", status)
	}
	last, sum := lines[len(lines)-2], lines[len(lines)-1]
	if last.Status != "error" || !strings.Contains(last.Error, "1024-byte limit") {
		t.Fatalf("oversized-line error = %+v, want the byte-limit message", last)
	}
	if sum.Status != "summary" || sum.OK != 1 || sum.Errors != 1 {
		t.Fatalf("summary = %+v, want ok=1 errors=1", sum)
	}
}

// TestBatchStreamOutlivesRequestTimeout pins the deadline contract of the
// streaming endpoint: RequestTimeout bounds each LINE's analysis, not the
// stream — a client feeding a large corpus slower than the request budget
// (the endpoint's stated use case, with intentionally blocking
// backpressure) must not see later lines fail with a deadline error.
func TestBatchStreamOutlivesRequestTimeout(t *testing.T) {
	_, hs := newService(t, server.Config{RequestTimeout: 150 * time.Millisecond})

	// Feed 4 lines with gaps that push the stream's total lifetime well
	// past the request timeout.
	pr, pw := io.Pipe()
	go func() {
		defer pw.Close()
		for i := 0; i < 4; i++ {
			if i > 0 {
				time.Sleep(120 * time.Millisecond)
			}
			data, err := json.Marshal(evolvingRepo(fmt.Sprintf("slow-feed-%d", i), 4))
			if err != nil {
				pw.CloseWithError(err)
				return
			}
			if _, err := pw.Write(append(data, '\n')); err != nil {
				return
			}
		}
	}()

	resp, err := http.Post(hs.URL+"/v1/projects:batch", "application/x-ndjson", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []batchLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l batchLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("unparseable batch line %q: %v", sc.Bytes(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no response lines")
	}
	sum := lines[len(lines)-1]
	if sum.Status != "summary" || sum.OK != 4 || sum.Errors != 0 {
		t.Fatalf("summary = %+v, want ok=4 errors=0 (stream outliving RequestTimeout must not fail lines)", sum)
	}
}

// TestBatchBackpressureBlocks pins the batch endpoint's pacing
// contract: with a single worker slot, a batch of distinct projects
// still completes every line — lines queue for the semaphore instead of
// bouncing with 429 the way single submissions do.
func TestBatchBackpressureBlocks(t *testing.T) {
	srv, hs := newService(t, server.Config{MaxConcurrent: 1})

	var repos []any
	for i := 0; i < 8; i++ {
		repos = append(repos, evolvingRepo(fmt.Sprintf("paced-%02d", i), 4+i%5))
	}
	status, lines := postBatch(t, hs.URL, ndjson(t, repos...))
	if status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}
	sum := lines[len(lines)-1]
	if sum.OK != 8 || sum.Errors != 0 {
		t.Fatalf("summary = %+v, want ok=8 errors=0", sum)
	}
	if srv.Stored() != 8 {
		t.Fatalf("Stored = %d, want 8", srv.Stored())
	}
}
