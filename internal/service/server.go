// Package service is the karyon-d daemon core: simulation-as-a-service
// over the harness runner, with a deterministic run cache.
//
// A job is a JobSpec — scenario config plus seed matrix. Because every
// run is a pure function of (scenario config, seed matrix, build), the
// canonical hash of those three is both the job's ID and the content
// address of its result: retried submissions dedupe onto the in-flight
// execution instead of double-executing, and completed NDJSON result
// streams are archived in an on-disk cache (Cache) and replayed
// byte-identically for every later submission of the same spec — a
// million clients asking for the same sweep cost one execution.
//
// The Server schedules cache misses onto a bounded worker pool of
// harness.Runner calls, streams replica results incrementally (NDJSON, in
// seed order) to any number of concurrent readers while the job runs,
// enforces per-job timeouts, and drains gracefully: Drain stops intake,
// lets running jobs finish until the deadline, then cancels them at the
// next window barrier. HTTP transport lives in http.go; the thin client
// in internal/serviceclient.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"karyon/internal/harness"
	"karyon/internal/metrics"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle states. Queued and running jobs are live; done, failed,
// and cancelled are terminal. Only done jobs have (and archive) a
// complete result stream.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

func terminal(st State) bool {
	return st == StateDone || st == StateFailed || st == StateCancelled
}

// Config configures a Server.
type Config struct {
	// CacheDir roots the on-disk run cache (required).
	CacheDir string
	// JournalDir roots the crash-safe job journal. When set, every job
	// transition is recorded through the same atomic tmp+rename discipline
	// as the cache, and New replays the journal: jobs that were queued or
	// running when the previous process died are re-enqueued and converge
	// to the same byte-identical archives (re-execution is idempotent —
	// every run is a pure function of (spec, seed matrix, build)). Empty
	// disables journaling.
	JournalDir string
	// Workers bounds how many jobs execute concurrently (default: number
	// of CPUs).
	Workers int
	// QueueDepth bounds accepted-but-not-started jobs; submissions beyond
	// it are refused with ErrBusy rather than buffered without bound
	// (default 1024).
	QueueDepth int
	// JobTimeout caps any single job's execution wall time; a spec's own
	// Timeout may shorten but never exceed it (default 10m; negative =
	// uncapped).
	JobTimeout time.Duration
	// Parallel is the per-job replica worker-pool width (default:
	// GOMAXPROCS/Workers, min 1). Wall time only — never output.
	Parallel int
	// Runner executes jobs; its zero value is the in-process local
	// backend. A remote Backend drops in here.
	Runner harness.Runner
	// Build overrides the binary fingerprint folded into job IDs and
	// cache keys. Tests set it for stable keys; the daemon leaves it
	// empty and gets BuildFingerprint().
	Build string
	// Log receives operational messages (default: os.Stderr).
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 1024
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 10 * time.Minute
	} else if c.JobTimeout < 0 {
		c.JobTimeout = 0 // explicit "uncapped"
	}
	if c.Parallel < 1 {
		c.Parallel = max(1, runtime.GOMAXPROCS(0)/c.Workers)
	}
	if c.Build == "" {
		c.Build = BuildFingerprint()
	}
	if c.Log == nil {
		c.Log = os.Stderr
	}
	return c
}

// Submission errors the transport layer maps to HTTP statuses.
var (
	// ErrDraining rejects new submissions during graceful shutdown.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrBusy rejects submissions when the job queue is full.
	ErrBusy = errors.New("service: job queue full")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("service: no such job")
)

// Status is the wire form of one job's state.
type Status struct {
	// ID is the job's deterministic identity: the cache key of its spec
	// under the server's build. Resubmitting an equivalent spec yields
	// the same ID.
	ID    string `json:"id"`
	State State  `json:"state"`
	// Cached is true when the result stream was served from the archive
	// (or from a completed in-memory job) without a new execution.
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
	// Stack is the captured goroutine stack when the job failed because
	// its scenario panicked; the panic was contained to this job.
	Stack string `json:"stack,omitempty"`
	// Recovered is true when this execution was re-enqueued from the
	// journal after a daemon crash rather than submitted by a client.
	Recovered bool `json:"recovered,omitempty"`
	// Spec is the normalized spec the job runs.
	Spec        JobSpec    `json:"spec"`
	CreatedAt   time.Time  `json:"created_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	ResultBytes int        `json:"result_bytes"`
	// TraceHash is the SHA-256 of the result stream — the byte-identity
	// fingerprint of the run (see CacheMeta.TraceHash). Empty until the
	// job completes.
	TraceHash string `json:"trace_hash,omitempty"`
}

// Stats is the server's operational counter snapshot.
type Stats struct {
	// Submitted counts every POST that resolved to a job (including
	// dedupes and hits).
	Submitted int64 `json:"submitted"`
	// CacheHits counts submissions answered by an already-complete result
	// (disk archive or finished in-memory job); CacheMisses counts
	// submissions that scheduled a new execution; Deduped counts
	// submissions attached to an in-flight execution of the same spec.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Deduped     int64 `json:"deduped"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
	Cancelled   int64 `json:"cancelled"`
	// Recovered counts jobs re-enqueued from the journal at startup —
	// work a previous process left interrupted that this one finished.
	Recovered int64 `json:"recovered"`
	// Panics counts contained scenario panics: each failed exactly its own
	// job (stack in the job status), never the daemon.
	Panics int64 `json:"panics"`
	// Swept counts stranded cache temp files removed at boot — debris of a
	// crash mid-archive, cleaned before the first submission.
	Swept    int64  `json:"swept"`
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
	Workers  int    `json:"workers"`
	Build    string `json:"build"`
	Draining bool   `json:"draining"`
	// Degraded lists the explicit degraded modes currently in force
	// ("queue-full", "cache-unavailable", "journal-unavailable"), in the
	// KARYON level-of-service spirit: reduced service is announced, never
	// silent. Empty means full service.
	Degraded []string `json:"degraded,omitempty"`
}

// job is the in-memory record of one submission chain. Its buf accumulates
// the NDJSON stream while running; cond broadcasts every append and state
// change so any number of StreamTo readers can tail it concurrently. Jobs
// revived from the disk archive carry no buf — their bytes are served from
// disk per read, so a hot cache does not pin every archived stream in
// daemon memory.
type job struct {
	id   string
	spec JobSpec

	mu        sync.Mutex
	cond      *sync.Cond
	state     State
	errmsg    string
	stack     string // captured stack of a contained scenario panic
	cached    bool
	recovered bool // re-enqueued from the journal at startup
	archived  bool // result bytes live (also) in the disk cache
	buf       []byte
	// resultBytes is the stream length for jobs whose bytes live only on
	// disk (buf == nil); len(buf) covers the rest.
	resultBytes int
	// traceHash is the stream's SHA-256, set on completion (or revived
	// from the archive's meta sidecar).
	traceHash string
	created   time.Time
	started   time.Time
	finished  time.Time
	// cancelRequested distinguishes an explicit cancel from a timeout once
	// the context dies; cancel aborts a running execution. drainKill marks
	// a cancellation forced by shutdown: an interruption, not a decision —
	// a journaled drain-killed job is recovered at the next startup.
	cancelRequested bool
	drainKill       bool
	cancel          context.CancelFunc
}

func newJob(id string, spec JobSpec, state State) *job {
	j := &job{id: id, spec: spec, state: state, created: time.Now()}
	j.cond = sync.NewCond(&j.mu)
	return j
}

func (j *job) status() *Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &Status{
		ID:          j.id,
		State:       j.state,
		Cached:      j.cached,
		Error:       j.errmsg,
		Stack:       j.stack,
		Recovered:   j.recovered,
		Spec:        j.spec,
		CreatedAt:   j.created,
		ResultBytes: max(len(j.buf), j.resultBytes),
		TraceHash:   j.traceHash,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// appendStream appends bytes to the job's result stream and wakes readers.
func (j *job) appendStream(b []byte) {
	j.mu.Lock()
	j.buf = append(j.buf, b...)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// finish moves the job to a terminal state and wakes readers.
func (j *job) finish(state State, errmsg string) {
	j.mu.Lock()
	j.state = state
	j.errmsg = errmsg
	j.finished = time.Now()
	j.cond.Broadcast()
	j.mu.Unlock()
}

// Server is the daemon core. Create with New, serve its Handler, stop
// with Drain (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	cache   *Cache
	journal *Journal // nil when journaling is disabled
	log     *log.Logger

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for listing
	queue    chan *job
	draining bool
	stats    Stats
	// Sticky degraded-mode flags (set on the first failed operation,
	// cleared on the next successful one); queue-full is computed live.
	cacheDegraded   bool
	journalDegraded bool

	wg sync.WaitGroup
}

// New opens the cache, replays the journal (re-enqueueing every job a
// previous process left interrupted), and starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.CacheDir == "" {
		return nil, errors.New("service: Config.CacheDir is required")
	}
	cache, err := NewCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		cache: cache,
		log:   log.New(cfg.Log, "karyon-d: ", log.LstdFlags),
		jobs:  map[string]*job{},
		queue: make(chan *job, cfg.QueueDepth),
	}
	s.stats.Workers = cfg.Workers
	s.stats.Build = cfg.Build
	s.stats.Swept = cache.Swept()
	if cfg.JournalDir != "" {
		journal, err := OpenJournal(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		s.journal = journal
		if err := s.recoverJournal(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recoverJournal replays the journal before the workers start: every journaled
// job without a complete archive is re-enqueued and will converge to the
// same byte-identical result a crash-free run would have produced —
// re-execution is free of side effects and deterministic by construction.
// Jobs whose archive already landed (the crash hit between cache.Put and
// the journal cleanup) are resolved in place. Recovery never fails the
// boot for one bad entry; at worst a job re-runs.
func (s *Server) recoverJournal() error {
	entries, skipped, err := s.journal.Replay()
	if err != nil {
		return err
	}
	if skipped > 0 {
		s.log.Printf("journal: skipped %d unreadable entries", skipped)
	}
	for _, e := range entries {
		if _, ok, err := s.cache.Get(e.Key); err == nil && ok {
			// Finished and archived; only the journal cleanup was lost.
			if err := s.journal.Remove(e.Key); err != nil {
				s.log.Printf("journal: cleanup of archived job %.12s: %v", e.Key, err)
			}
			continue
		}
		if len(s.jobs) == cap(s.queue) {
			// More interrupted jobs than queue slots: the remainder stays
			// journaled and recovers on the next restart.
			s.log.Printf("journal: queue full, deferring recovery of job %.12s", e.Key)
			continue
		}
		j := newJob(e.Key, e.Last.Spec, StateQueued)
		j.recovered = true
		s.queue <- j
		s.remember(j)
		s.stats.Recovered++
		s.stats.Queued++
		s.journalRecord(JournalRecord{
			Key: e.Key, State: StateQueued, Spec: e.Last.Spec,
			At: time.Now(), Recovered: true,
		})
		s.log.Printf("job %.12s: recovered from journal (was %s), re-enqueued", e.Key, e.Last.State)
	}
	return nil
}

// journalRecord writes one transition, downgrading a journal failure to a
// logged degraded mode: losing durability must not fail live requests.
// Callers hold s.mu (or run before the workers start).
func (s *Server) journalRecord(rec JournalRecord) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Record(rec); err != nil {
		s.journalDegraded = true
		s.log.Printf("job %.12s: journal write failed: %v", rec.Key, err)
		return
	}
	s.journalDegraded = false
}

// journalRemove resolves a job's journal entry (same degraded-mode
// discipline as journalRecord). Callers hold s.mu.
func (s *Server) journalRemove(key string) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Remove(key); err != nil {
		s.journalDegraded = true
		s.log.Printf("job %.12s: journal cleanup failed: %v", key, err)
	}
}

// Build returns the fingerprint job IDs are derived under.
func (s *Server) Build() string { return s.cfg.Build }

// Submit resolves a spec to its deterministic job: a fresh execution on a
// cache miss, the archived result on a hit, or the in-flight job when an
// equivalent spec is already queued or running. The returned status's ID
// is the cache key; Cached reports whether the result already existed.
func (s *Server) Submit(spec JobSpec) (*Status, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	id, err := norm.CacheKey(s.cfg.Build)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.stats.Submitted++

	if j, ok := s.jobs[id]; ok {
		j.mu.Lock()
		st, errmsg := j.state, j.errmsg
		j.mu.Unlock()
		switch {
		case st == StateDone:
			s.stats.CacheHits++
			out := j.status()
			out.Cached = true
			return out, nil
		case !terminal(st):
			s.stats.Deduped++
			return j.status(), nil
		default:
			// A failed or cancelled attempt is not a result; a retry
			// submission schedules a fresh execution under the same ID.
			s.log.Printf("job %.12s: retrying after %s (%s)", id, st, errmsg)
			s.forget(id)
		}
	}

	if stream, ok, err := s.cache.Get(id); err != nil {
		// Cache unreadable (directory vanished, permissions, bad disk):
		// degrade explicitly and execute as a miss instead of failing the
		// submission — the archive is an optimization, not the service.
		s.cacheDegraded = true
		s.log.Printf("job %.12s: cache read failed, degrading to execution: %v", id, err)
	} else if ok {
		s.cacheDegraded = false
		// Record the length but drop the bytes: disk-backed jobs stream
		// from the archive per read, so a hot cache does not pin every
		// archived stream in daemon memory.
		j := newJob(id, norm, StateDone)
		j.cached, j.archived = true, true
		j.finished = j.created
		j.resultBytes = len(stream)
		if meta, ok, _ := s.cache.Meta(id); ok {
			j.traceHash = meta.TraceHash
		}
		s.remember(j)
		s.stats.CacheHits++
		return j.status(), nil
	}

	j := newJob(id, norm, StateQueued)
	select {
	case s.queue <- j:
	default:
		return nil, ErrBusy
	}
	s.remember(j)
	s.stats.CacheMisses++
	s.stats.Queued++
	s.journalRecord(JournalRecord{Key: id, State: StateQueued, Spec: norm, At: time.Now()})
	return j.status(), nil
}

// remember/forget maintain the id index; callers hold s.mu.
func (s *Server) remember(j *job) {
	if _, ok := s.jobs[j.id]; !ok {
		s.order = append(s.order, j.id)
	}
	s.jobs[j.id] = j
}

func (s *Server) forget(id string) {
	delete(s.jobs, id)
	for i, v := range s.order {
		if v == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Job returns the status of a known job.
func (s *Server) Job(id string) (*Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return j.status(), nil
}

// Jobs lists every known job in submission order.
func (s *Server) Jobs() []*Status {
	s.mu.Lock()
	ids := append([]string{}, s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]*Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Cancel stops a job: a queued job is cancelled in place (the worker
// skips it), a running one has its context cancelled — the world stops at
// the next window barrier. Cancelling a terminal job is a no-op.
func (s *Server) Cancel(id string) (*Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	wasQueued := false
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		wasQueued = true
		j.state = StateCancelled
		j.errmsg = "cancelled before start"
		j.finished = time.Now()
		j.buf = append(j.buf, errorLine(j.errmsg)...)
		j.cond.Broadcast()
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	j.mu.Unlock()
	if wasQueued {
		// Lock order is always s.mu before j.mu, so the counters update
		// after j.mu is released.
		s.mu.Lock()
		s.stats.Cancelled++
		s.stats.Queued--
		// An explicit client cancel is a resolution, not an interruption:
		// the job must not come back at the next restart.
		s.journalRemove(id)
		s.mu.Unlock()
	}
	return j.status(), nil
}

// Stats snapshots the operational counters, including the degraded-mode
// list computed from the live queue and the sticky cache/journal flags.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Degraded = s.degradedLocked()
	return st
}

// degradedLocked names every degraded mode currently in force; s.mu held.
func (s *Server) degradedLocked() []string {
	var d []string
	if s.cacheDegraded {
		d = append(d, "cache-unavailable")
	}
	if s.journalDegraded {
		d = append(d, "journal-unavailable")
	}
	if len(s.queue) == cap(s.queue) && !s.draining {
		d = append(d, "queue-full")
	}
	sort.Strings(d)
	return d
}

// StreamTo copies the job's NDJSON result stream to w, tailing a live job
// until it reaches a terminal state: a caller attaching mid-run gets the
// buffered prefix immediately and the remainder as replicas complete. If
// flush is non-nil it runs after every write (HTTP streaming). The bytes
// written for a given job ID are identical for every caller, live or
// cached — that is the service's central contract.
func (s *Server) StreamTo(id string, w io.Writer, flush func()) error {
	return s.StreamFrom(id, 0, w, flush)
}

// StreamFrom is StreamTo with a resume offset: the first from complete
// NDJSON lines are skipped and exactly the missing suffix is written. A
// client whose connection dropped after reading N lines reconnects with
// from=N and continues mid-job instead of re-reading (and re-simulating
// nothing — the bytes are the same either way; resume only saves
// transfer and client-side dedupe). from beyond the final line yields an
// empty, immediately-terminated stream.
func (s *Server) StreamFrom(id string, from int, w io.Writer, flush func()) error {
	if from < 0 {
		return fmt.Errorf("service: negative resume offset %d", from)
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}

	j.mu.Lock()
	fromDisk := j.archived && j.buf == nil
	j.mu.Unlock()
	if fromDisk {
		stream, ok, err := s.cache.Get(id)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("service: archive for job %.12s vanished", id)
		}
		if _, err := w.Write(skipLines(stream, from)); err != nil {
			return err
		}
		if flush != nil {
			flush()
		}
		return nil
	}

	// Live (or in-memory completed) job: skip `from` complete lines as they
	// arrive, then tail the remainder. The stream only ever grows by whole
	// lines, so line counting over the shared buffer is exact.
	off, skipped := 0, 0
	for skipped < from {
		j.mu.Lock()
		for off == len(j.buf) && !terminal(j.state) {
			j.cond.Wait()
		}
		buf := j.buf
		done := terminal(j.state)
		j.mu.Unlock()
		for off < len(buf) && skipped < from {
			i := bytes.IndexByte(buf[off:], '\n')
			if i < 0 {
				off = len(buf)
				break
			}
			off += i + 1
			skipped++
		}
		if done && off == len(buf) && skipped < from {
			return nil // stream ended before the offset: empty suffix
		}
	}
	for {
		j.mu.Lock()
		for off == len(j.buf) && !terminal(j.state) {
			j.cond.Wait()
		}
		chunk := append([]byte{}, j.buf[off:]...)
		off += len(chunk)
		done := terminal(j.state) && off == len(j.buf)
		j.mu.Unlock()
		if len(chunk) > 0 {
			if _, err := w.Write(chunk); err != nil {
				return err
			}
			if flush != nil {
				flush()
			}
		}
		if done {
			return nil
		}
	}
}

// skipLines returns b without its first n complete lines.
func skipLines(b []byte, n int) []byte {
	for ; n > 0 && len(b) > 0; n-- {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return nil
		}
		b = b[i+1:]
	}
	return b
}

// worker executes queued jobs until the queue closes at drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.execute(j)
	}
}

func (s *Server) execute(j *job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	if d := j.spec.timeout(s.cfg.JobTimeout); d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.cond.Broadcast()
	j.mu.Unlock()
	defer cancel()

	s.mu.Lock()
	s.stats.Queued--
	s.stats.Running++
	s.journalRecord(JournalRecord{Key: j.id, State: StateRunning, Spec: j.spec, At: time.Now(), Recovered: j.recovered})
	s.mu.Unlock()
	start := time.Now()
	err := s.runContained(ctx, j)
	elapsed := time.Since(start)

	s.mu.Lock()
	s.stats.Running--
	s.mu.Unlock()

	if err == nil {
		j.mu.Lock()
		stream := j.buf
		j.mu.Unlock()
		sum := sha256.Sum256(stream)
		traceHash := hex.EncodeToString(sum[:])
		meta := CacheMeta{
			Spec: j.spec, Build: s.cfg.Build, CreatedAt: time.Now(),
			ElapsedMS: elapsed.Milliseconds(), TraceHash: traceHash,
		}
		j.mu.Lock()
		j.traceHash = traceHash
		j.mu.Unlock()
		archived := false
		if cerr := s.cache.Put(j.id, stream, meta); cerr != nil {
			// The job still succeeded; only the archive is lost. Degrade
			// explicitly and keep the journal entry: without an archive the
			// result is not durable, so a restart re-runs the job.
			s.log.Printf("job %.12s: archive failed: %v", j.id, cerr)
		} else {
			archived = true
			j.mu.Lock()
			j.archived = true
			j.mu.Unlock()
		}
		// Count the job before its terminal state wakes the readers, so a
		// client that saw it end reads it counted.
		s.mu.Lock()
		s.stats.Completed++
		s.cacheDegraded = !archived
		if archived {
			// The archive is the durable record now; the journal entry has
			// done its job.
			s.journalRemove(j.id)
		} else {
			s.journalRecord(JournalRecord{Key: j.id, State: StateDone, Spec: j.spec, At: time.Now(), Error: "archive failed"})
		}
		s.mu.Unlock()
		j.finish(StateDone, "")
		s.log.Printf("job %.12s: done (%s, %s)", j.id, j.spec.Scenario, elapsed.Round(time.Millisecond))
		return
	}

	j.mu.Lock()
	cancelled := j.cancelRequested
	drainKill := j.drainKill
	j.mu.Unlock()
	state, msg, stack := StateFailed, err.Error(), ""
	var pe *harness.PanicError
	switch {
	case cancelled:
		state, msg = StateCancelled, "cancelled"
	case errors.Is(err, context.DeadlineExceeded):
		msg = fmt.Sprintf("timeout after %s", j.spec.timeout(s.cfg.JobTimeout))
	case errors.As(err, &pe):
		// The scenario panicked; the panic was contained to this job.
		// Surface the captured stack in the status and the stream's error
		// envelope so the failure is debuggable without daemon access.
		stack = pe.Stack
	}
	j.mu.Lock()
	j.stack = stack
	j.mu.Unlock()
	j.appendStream(errorLineStack(msg, stack))
	s.mu.Lock()
	if state == StateCancelled {
		s.stats.Cancelled++
	} else {
		s.stats.Failed++
	}
	if stack != "" {
		s.stats.Panics++
	}
	if drainKill {
		// Interrupted by shutdown, not resolved: leave the journal entry so
		// the next startup re-enqueues the job.
		s.journalRecord(JournalRecord{Key: j.id, State: StateCancelled, Spec: j.spec, At: time.Now(), Error: "interrupted by shutdown"})
	} else {
		s.journalRemove(j.id)
	}
	s.mu.Unlock()
	j.finish(state, msg)
	s.log.Printf("job %.12s: %s: %s", j.id, state, msg)
}

// runContained runs the job with a final panic backstop: whatever escapes
// the scenario, the backend, or the encoding path fails this job — never
// the daemon. The harness already contains per-replica panics; this guard
// covers custom backends and the streaming/encoding layer above them.
func (s *Server) runContained(ctx context.Context, j *job) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &harness.PanicError{Value: fmt.Sprint(p), Stack: string(debug.Stack())}
		}
	}()
	return s.run(ctx, j)
}

// run builds the scenario and streams the replicated run into the job.
func (s *Server) run(ctx context.Context, j *job) error {
	sc, err := j.spec.Build()
	if err != nil {
		return err
	}
	var encErr error
	rep, err := s.cfg.Runner.RunStream(ctx, sc, j.spec.Options(s.cfg.Parallel),
		func(i int, seed int64, res *metrics.Result) {
			line, err := replicaLine(i, seed, res)
			if err != nil {
				encErr = err
				return
			}
			j.appendStream(line)
		})
	if err != nil {
		return err
	}
	if encErr != nil {
		return encErr
	}
	line, err := summaryLine(rep)
	if err != nil {
		return err
	}
	j.appendStream(line)
	return nil
}

// Drain gracefully shuts the server down: new submissions are refused,
// queued and running jobs are given until ctx's deadline to finish, then
// every survivor is cancelled (deterministically, at its next window
// barrier) and awaited. Safe to call once; returns ctx.Err() when the
// deadline forced cancellations, nil on a clean drain.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("service: already draining")
	}
	s.draining = true
	s.stats.Draining = true
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Deadline: cancel everything still live and wait for the workers.
	s.mu.Lock()
	live := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		live = append(live, j)
	}
	s.mu.Unlock()
	for _, j := range live {
		j.mu.Lock()
		switch j.state {
		case StateQueued:
			// Interrupted, not resolved: the journal entry (if any) stays,
			// so a restarted daemon re-enqueues the job.
			j.state = StateCancelled
			j.errmsg = "cancelled at drain"
			j.finished = time.Now()
			j.buf = append(j.buf, errorLine(j.errmsg)...)
			j.cond.Broadcast()
		case StateRunning:
			j.cancelRequested = true
			j.drainKill = true
			if j.cancel != nil {
				j.cancel()
			}
		}
		j.mu.Unlock()
	}
	<-done
	return ctx.Err()
}

// Close shuts down immediately: Drain with an already-expired deadline.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx)
}
