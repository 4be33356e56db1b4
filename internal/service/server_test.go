package service

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"karyon/internal/harness"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	if cfg.Build == "" {
		cfg.Build = testBuild
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func tinyHighway() JobSpec {
	return JobSpec{Scenario: "highway", Seed: 7, Replicas: 2, Duration: "10s", Cars: 6}
}

// waitTerminal streams the job to completion and returns the bytes.
func waitTerminal(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.StreamTo(id, &buf, nil); err != nil {
		t.Fatalf("StreamTo(%s): %v", id, err)
	}
	return buf.Bytes()
}

// parseStream decodes every NDJSON line.
func parseStream(t *testing.T, b []byte) []Line {
	t.Helper()
	var lines []Line
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var l Line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestSubmitTwiceExecutesOnce is the tentpole acceptance in miniature: a
// job submitted twice executes once, and the cached response is
// byte-identical to the first.
func TestSubmitTwiceExecutesOnce(t *testing.T) {
	s := newTestServer(t, Config{})
	st1, err := s.Submit(tinyHighway())
	if err != nil {
		t.Fatal(err)
	}
	if st1.Cached {
		t.Fatal("first submission reported cached")
	}
	first := waitTerminal(t, s, st1.ID)

	st2, err := s.Submit(tinyHighway())
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatal("second submission did not hit")
	}
	if st2.ID != st1.ID {
		t.Fatalf("deterministic IDs diverged: %s vs %s", st1.ID, st2.ID)
	}
	second := waitTerminal(t, s, st2.ID)
	if !bytes.Equal(first, second) {
		t.Fatalf("cached stream differs from executed stream:\n%s\nvs\n%s", first, second)
	}

	lines := parseStream(t, first)
	if len(lines) != 3 {
		t.Fatalf("want 2 replica lines + 1 summary, got %d lines", len(lines))
	}
	for i := 0; i < 2; i++ {
		if lines[i].Type != LineReplica || lines[i].Index == nil || *lines[i].Index != i || lines[i].Result == nil {
			t.Fatalf("line %d is not replica %d: %+v", i, i, lines[i])
		}
	}
	last := lines[len(lines)-1]
	if last.Type != LineSummary || last.Report == nil || last.Report.Summary.Replicas != 2 {
		t.Fatalf("bad summary line: %+v", last)
	}

	st := s.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 1 || st.Completed != 1 {
		t.Fatalf("stats misses=%d hits=%d completed=%d, want 1/1/1", st.CacheMisses, st.CacheHits, st.Completed)
	}
}

// TestCacheSurvivesRestart: a new server over the same cache dir answers
// from the archive without executing, byte-identically.
func TestCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{CacheDir: dir})
	st, err := s1.Submit(tinyHighway())
	if err != nil {
		t.Fatal(err)
	}
	first := waitTerminal(t, s1, st.ID)
	s1.Close()

	s2 := newTestServer(t, Config{CacheDir: dir})
	st2, err := s2.Submit(tinyHighway())
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatal("restarted server missed the disk archive")
	}
	if st2.ResultBytes != len(first) {
		t.Fatalf("archived length %d, want %d", st2.ResultBytes, len(first))
	}
	if got := waitTerminal(t, s2, st2.ID); !bytes.Equal(got, first) {
		t.Fatal("disk-served stream differs from the original")
	}
	if misses := s2.Stats().CacheMisses; misses != 0 {
		t.Fatalf("restarted server executed %d jobs, want 0", misses)
	}
}

// TestTraceHash: a completed job's status carries the SHA-256 of its
// result stream, the hash lands in the archive's meta sidecar, and a
// restarted daemon revives it on a disk hit — so two daemons claiming the
// same spec can be compared by fingerprint alone.
func TestTraceHash(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{CacheDir: dir})
	st, err := s1.Submit(tinyHighway())
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceHash != "" {
		t.Fatalf("queued job already has a trace hash %q", st.TraceHash)
	}
	stream := waitTerminal(t, s1, st.ID)
	sum := sha256.Sum256(stream)
	want := hex.EncodeToString(sum[:])
	done, err := s1.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.TraceHash != want {
		t.Fatalf("status trace hash %q, want %q", done.TraceHash, want)
	}
	if meta, ok, err := s1.cache.Meta(st.ID); err != nil || !ok || meta.TraceHash != want {
		t.Fatalf("archive meta trace hash = %q ok=%v err=%v, want %q", meta.TraceHash, ok, err, want)
	}
	s1.Close()

	s2 := newTestServer(t, Config{CacheDir: dir})
	st2, err := s2.Submit(tinyHighway())
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.TraceHash != want {
		t.Fatalf("disk hit cached=%v trace hash %q, want %q", st2.Cached, st2.TraceHash, want)
	}
}

// TestStatsSweptSurfacesBootSweep: debris a crash mid-archive left behind
// is counted in the stats a restarted daemon reports.
func TestStatsSweptSurfacesBootSweep(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ".tmp-999"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{CacheDir: dir})
	if got := s.Stats().Swept; got != 1 {
		t.Fatalf("Stats.Swept = %d, want 1", got)
	}
}

// TestIndependentServersProduceIdenticalStreams: the stream is a pure
// function of (spec, build) — two daemons with cold caches agree byte for
// byte, which is what makes the content address sound in the first place.
func TestIndependentServersProduceIdenticalStreams(t *testing.T) {
	a := newTestServer(t, Config{})
	b := newTestServer(t, Config{Parallel: 2})
	sta, err := a.Submit(tinyHighway())
	if err != nil {
		t.Fatal(err)
	}
	stb, err := b.Submit(tinyHighway())
	if err != nil {
		t.Fatal(err)
	}
	if sta.ID != stb.ID {
		t.Fatalf("IDs differ across servers: %s vs %s", sta.ID, stb.ID)
	}
	if !bytes.Equal(waitTerminal(t, a, sta.ID), waitTerminal(t, b, stb.ID)) {
		t.Fatal("independent executions of the same spec produced different streams")
	}
}

// TestConcurrentSubmissionsDedupe: many clients racing the same spec cost
// one execution; every one of them reads the same bytes.
func TestConcurrentSubmissionsDedupe(t *testing.T) {
	s := newTestServer(t, Config{})
	const clients = 8
	var wg sync.WaitGroup
	streams := make([][]byte, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := s.Submit(tinyHighway())
			if err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			if errs[i] = s.StreamTo(st.ID, &buf, nil); errs[i] == nil {
				streams[i] = buf.Bytes()
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(streams[0], streams[i]) {
			t.Fatalf("client %d read different bytes", i)
		}
	}
	st := s.Stats()
	if st.CacheMisses != 1 {
		t.Fatalf("%d executions for %d racing clients, want 1", st.CacheMisses, clients)
	}
	if st.CacheHits+st.Deduped != clients-1 {
		t.Fatalf("hits=%d deduped=%d, want %d combined", st.CacheHits, st.Deduped, clients-1)
	}
}

// TestFailedJobRetriesAndIsNotCached: failures are never archived, and a
// retry submission schedules a fresh execution under the same ID.
func TestFailedJobRetriesAndIsNotCached(t *testing.T) {
	s := newTestServer(t, Config{JobTimeout: 50 * time.Millisecond})
	// A large replicated world cannot finish in 50ms of wall time.
	big := JobSpec{Scenario: "megahighway", Seed: 3, Replicas: 4, Duration: "10m", Cars: 2000}
	st, err := s.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	stream := waitTerminal(t, s, st.ID)
	lines := parseStream(t, stream)
	lastLine := lines[len(lines)-1]
	if lastLine.Type != LineError || !strings.Contains(lastLine.Error, "timeout") {
		t.Fatalf("failed stream does not end in a timeout error line: %+v", lastLine)
	}
	got, err := s.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed {
		t.Fatalf("state = %s, want failed", got.State)
	}
	if _, ok, _ := s.cache.Get(st.ID); ok {
		t.Fatal("failed job was archived")
	}
	st2, err := s.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached || st2.State == StateFailed {
		t.Fatalf("retry did not schedule a fresh execution: %+v", st2)
	}
	if st2.ID != st.ID {
		t.Fatal("retry changed the deterministic ID")
	}
	if _, err := s.Cancel(st2.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st2.ID)
}

// TestCancelRunningJob: cancellation reaches a running world at its next
// barrier and the job lands in cancelled, not failed.
func TestCancelRunningJob(t *testing.T) {
	s := newTestServer(t, Config{})
	st, err := s.Submit(JobSpec{Scenario: "megahighway", Seed: 5, Duration: "10m", Cars: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for it to leave the queue so the cancel exercises the running
	// path at least sometimes; cancelling while queued is fine too.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := s.Job(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == StateRunning || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)
	got, err := s.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got.State)
	}
	if _, ok, _ := s.cache.Get(st.ID); ok {
		t.Fatal("cancelled job was archived")
	}
}

// TestStreamWhileRunning: a reader attached before the job finishes sees
// exactly the bytes a post-completion reader sees.
func TestStreamWhileRunning(t *testing.T) {
	s := newTestServer(t, Config{})
	st, err := s.Submit(JobSpec{Scenario: "highway", Seed: 11, Replicas: 3, Duration: "20s", Cars: 8})
	if err != nil {
		t.Fatal(err)
	}
	live := waitTerminal(t, s, st.ID) // attaches immediately, tails to completion
	after := waitTerminal(t, s, st.ID)
	if !bytes.Equal(live, after) {
		t.Fatal("live tail and replay differ")
	}
}

// TestDrain: draining refuses new work, finishes what is running, and a
// forced drain cancels survivors.
func TestDrain(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	quick, err := s.Submit(tinyHighway())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("clean drain errored: %v", err)
	}
	if _, err := s.Submit(tinyHighway()); err != ErrDraining {
		t.Fatalf("submit during drain = %v, want ErrDraining", err)
	}
	got, err := s.Job(quick.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("in-flight job at drain = %s, want done", got.State)
	}
}

func TestForcedDrainCancelsRunning(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	long, err := s.Submit(JobSpec{Scenario: "megahighway", Seed: 9, Duration: "10m", Cars: 1500})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("forced drain reported clean")
	}
	got, err := s.Job(long.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !terminal(got.State) || got.State == StateDone {
		t.Fatalf("long job after forced drain = %s, want cancelled/failed", got.State)
	}
}

func TestUnknownJob(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.Job(testKey('e')); err != ErrNotFound {
		t.Fatalf("Job(unknown) = %v, want ErrNotFound", err)
	}
	if _, err := s.Cancel(testKey('e')); err != ErrNotFound {
		t.Fatalf("Cancel(unknown) = %v, want ErrNotFound", err)
	}
	if err := s.StreamTo(testKey('e'), io.Discard, nil); err != ErrNotFound {
		t.Fatalf("StreamTo(unknown) = %v, want ErrNotFound", err)
	}
}

func TestSubmitRejectsBadSpec(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.Submit(JobSpec{Scenario: "warp-drive"}); err == nil {
		t.Fatal("bad spec accepted")
	}
}

// TestExperimentJob: experiment registry ids run through the same path
// and cache the same way.
func TestExperimentJob(t *testing.T) {
	s := newTestServer(t, Config{})
	spec := JobSpec{Scenario: "E1", Seed: 2, Short: true}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	first := waitTerminal(t, s, st.ID)
	lines := parseStream(t, first)
	if lines[len(lines)-1].Type != LineSummary {
		t.Fatalf("experiment stream does not end in a summary: %+v", lines[len(lines)-1])
	}
	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatal("experiment resubmission missed")
	}
}

// endedUnderLock waits until job id has left the running count but not
// yet ended, then holds the server lock for up to d. It reports whether
// the job reached its terminal state while the lock was held, and the
// stats as they were at that instant. A job that missed the window, ending
// before the lock was taken, reports false too.
func endedUnderLock(s *Server, id string, d time.Duration) (Stats, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	state := func() State {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.state
	}
	for {
		s.mu.Lock()
		st := state()
		if terminal(st) {
			s.mu.Unlock()
			return Stats{}, false
		}
		if st == StateRunning && s.stats.Queued == 0 && s.stats.Running == 0 {
			break
		}
		s.mu.Unlock()
	}
	defer s.mu.Unlock()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		if terminal(state()) {
			return s.stats, true
		}
	}
	return Stats{}, false
}

// TestStatsCountBeforeTerminalState: a job is counted in the stats before
// its terminal state wakes the readers, so a client that saw a job end
// reads it counted. The test holds the server lock across the end of each
// job's run: a job that ends while the lock is held must already be
// counted. Each terminal path (done, failed by a panic, cancelled) runs
// several jobs.
func TestStatsCountBeforeTerminalState(t *testing.T) {
	const jobs = 5
	spec := func(i int) JobSpec {
		return JobSpec{Scenario: "highway", Seed: int64(100 + i), Replicas: 1, Duration: "1s", Cars: 2}
	}
	for _, tc := range []struct {
		name    string
		backend harness.Backend
		counted func(Stats) int64
	}{
		{"done", nil, func(st Stats) int64 { return st.Completed }},
		{"failed", panicBackend{}, func(st Stats) int64 { return min(st.Failed, st.Panics) }},
		{"cancelled", blockingBackend{}, func(st Stats) int64 { return st.Cancelled }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Config{Runner: harness.Runner{Backend: tc.backend}})
			for i := range jobs {
				st, err := s.Submit(spec(i))
				if err != nil {
					t.Fatal(err)
				}
				if tc.name == "cancelled" {
					waitState(t, s, st.ID, StateRunning)
					if _, err := s.Cancel(st.ID); err != nil {
						t.Fatal(err)
					}
				}
				if stats, ended := endedUnderLock(s, st.ID, 20*time.Millisecond); ended && tc.counted(stats) < int64(i+1) {
					t.Fatalf("job %d ended before the stats counted it: %+v", i+1, stats)
				}
				waitTerminal(t, s, st.ID)
				if got := tc.counted(s.Stats()); got < int64(i+1) {
					t.Fatalf("after %d jobs ended the stats count %d", i+1, got)
				}
			}
		})
	}
}
