package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"karyon/internal/service"
	"karyon/internal/serviceclient"
)

const (
	// daemonClients is the closed loop's concurrency: karyon-sim -daemon
	// callers each wait for their result before submitting again.
	daemonClients = 2
	// daemonWorkers matches the host's two cores.
	daemonWorkers = 2
	// daemonBoots is how many times a run boots the daemon for setup_s:
	// once for the daemon it drives, then once after each of
	// daemonBoots-1 slices of the budget.
	daemonBoots = 21
	// missEvery sets the job mix: the first of every missEvery jobs drawn
	// is a spec never submitted before (a cache miss); every other job
	// repeats a spec drawn uniformly from those already submitted (a hit,
	// or a dedupe while the first run is in flight). One miss in 8 is the
	// mix of the repository's BenchmarkServiceCacheLoad at clients=4: 4
	// distinct specs in 32 submissions, a hit ratio of 0.875.
	missEvery = 8
)

// poolSpec is the i-th distinct spec of a run: small two-replica worlds,
// three highways for every megahighway, sized so both kinds run in about
// 80 ms — long enough that scheduling jitter does not set the miss tail.
func poolSpec(seed int64, i int) service.JobSpec {
	s := service.JobSpec{Seed: seed*100000 + int64(i) + 1, Replicas: 2}
	if i%4 == 3 {
		s.Scenario, s.Cars, s.Length, s.Duration = "megahighway", 200, 10000, "3s"
	} else {
		s.Scenario, s.Cars, s.Duration = "highway", 50, "30s"
	}
	return s
}

// simsecOf is the simulated time a spec's execution covers.
func simsecOf(s service.JobSpec) float64 {
	d, _ := time.ParseDuration(s.Duration)
	return d.Seconds() * float64(s.Replicas)
}

// jobSeq is the run's seeded job sequence, shared by the clients: the
// n-th job drawn is the same at every run with the same seed, whichever
// client submits it.
type jobSeq struct {
	mu     sync.Mutex
	rng    *rand.Rand
	drawn  int
	issued int
}

func (q *jobSeq) next() (idx int, fresh bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.drawn++
	if (q.drawn-1)%missEvery == 0 {
		q.issued++
		return q.issued - 1, true
	}
	return q.rng.Intn(q.issued), false
}

// daemonRun is one booted karyon-d behind a loopback HTTP server and the
// measurements its clients collect.
type daemonRun struct {
	seed int64
	hs   *httptest.Server
	seq  *jobSeq
	tr   *jobTracer // nil: untraced

	mu          sync.Mutex
	out         *outcome
	first       map[int]string // spec index → sha256 of its first stream
	all         []float64      // submit → stream end, every job (ms)
	hitDone     []float64
	missDone    []float64
	missFirst   []float64
	submit      []float64
	queueWait   []float64
	runMs       []float64
	stream      []float64
	done        int
	refused     int
	executedSim float64
}

// warmupSpec is the job every boot runs before the daemon counts as set
// up: boot to first result is what a caller starting karyon-d waits for.
// Its seed lies outside every run's pool.
var warmupSpec = service.JobSpec{Scenario: "highway", Seed: -1, Replicas: 2, Cars: 30, Duration: "10s"}

// bootDaemon starts a karyon-d with fresh cache and journal directories
// under dir and waits until it has served the warm-up job.
func bootDaemon(dir string) (*service.Server, *httptest.Server, error) {
	cache, err := os.MkdirTemp(dir, "cache-")
	if err != nil {
		return nil, nil, err
	}
	journal, err := os.MkdirTemp(dir, "journal-")
	if err != nil {
		return nil, nil, err
	}
	srv, err := service.New(service.Config{
		CacheDir: cache, JournalDir: journal, Workers: daemonWorkers,
		Build: "perfbench", Log: io.Discard,
	})
	if err != nil {
		return nil, nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	if _, _, err := serviceclient.New(hs.URL).Run(context.Background(), warmupSpec); err != nil {
		hs.Close()
		srv.Close()
		return nil, nil, fmt.Errorf("warm-up job: %w", err)
	}
	return srv, hs, nil
}

func runDaemonMix(cfg runConfig) (*outcome, error) {
	dir, err := scratchDir("tmp")
	if err != nil {
		return nil, err
	}
	if dir, err = os.MkdirTemp(dir, "daemon-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	out := newOutcome()
	var setups []float64
	boot := func() (*service.Server, *httptest.Server, error) {
		t0 := time.Now()
		srv, hs, err := bootDaemon(dir)
		if err != nil {
			return nil, nil, fmt.Errorf("booting karyon-d: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return srv, hs, nil
	}
	srv, hs, err := boot()
	if err != nil {
		return nil, err
	}
	heap := liveHeap()
	d := &daemonRun{
		seed: cfg.Seed, hs: hs, out: out, first: map[int]string{},
		seq: &jobSeq{rng: rand.New(rand.NewSource(cfg.Seed))},
	}
	budget := cfg.Budget
	if cfg.Traced {
		d.tr = &jobTracer{base: time.Now()}
		budget /= 2
	}
	// The other boots are spread over the run, one after each equal slice
	// of the budget and outside its timing, each of a daemon that is shut
	// down again: a boot takes ~20 ms, so back to back they would all fall
	// into one burst of interference from outside the program.
	var wall float64
	for i := 1; i < daemonBoots; i++ {
		wall += d.drive(budget / (daemonBoots - 1))
		s, h, err := boot()
		if err != nil {
			hs.Close()
			srv.Close()
			return nil, err
		}
		h.Close()
		s.Close()
	}
	st := srv.Stats()
	retained := (liveHeap() - heap) / float64(d.done)
	hs.Close()
	srv.Close()

	if int(st.CacheMisses) != d.seq.issued+1 {
		out.fail("daemon ran %d cache misses for %d distinct specs and the warm-up", st.CacheMisses, d.seq.issued)
	}
	if st.Failed != 0 {
		out.fail("daemon reports %d failed jobs", st.Failed)
	}
	out.Values["setup_s"] = median(setups)
	out.Samples["setup_s"] = len(setups)
	out.Values["simsec_per_s"] = d.executedSim / wall
	out.Values["ops_per_s"] = float64(d.done) / wall
	out.timing("op_ms", d.all)
	out.Values["heap_mb"] = heap / 1e6
	if cfg.Traced {
		out.timing("serviceclient.miss_done_ms", d.missDone)
		out.timing("serviceclient.hit_done_ms", d.hitDone)
		out.Values["serviceclient.miss_first_line_ms.p50"] = median(d.missFirst)
		out.Values["service.submit_ms.p50"] = median(d.submit)
		out.Values["service.queue_wait_ms.p50"] = median(d.queueWait)
		out.Values["service.run_ms.p50"] = median(d.runMs)
		out.Values["service.stream_ms.p50"] = median(d.stream)
		out.Values["service.hit_ratio"] = ratio(float64(st.CacheHits+st.Deduped), float64(st.Submitted))
		out.Values["service.deduped"] = float64(st.Deduped)
		out.Values["service.refused"] = float64(d.refused)
		out.Values["go.retained_bytes_per_op"] = retained
		out.Samples["serviceclient.miss_first_line_ms"] = len(d.missFirst)
		out.Samples["service.queue_wait_ms"] = len(d.queueWait)
		out.Samples["service.stream_ms"] = len(d.stream)
		out.Spans = d.tr.spans
	}
	return out, nil
}

// drive runs the closed loop until the budget is spent and returns the
// wall seconds it took, every client's last job included. Called again,
// it continues the same job sequence.
func (d *daemonRun) drive(budget time.Duration) float64 {
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := serviceclient.New(d.hs.URL)
			for time.Since(start) < budget {
				idx, fresh := d.seq.next()
				d.job(ctx, cl, idx, fresh)
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// job submits one spec, reads its NDJSON stream to the end, and checks
// the stream against the job's trace hash and the spec's first stream.
func (d *daemonRun) job(ctx context.Context, cl *serviceclient.Client, idx int, fresh bool) {
	spec := poolSpec(d.seed, idx)
	root := d.tr.open("job", -1)
	t0 := time.Now()
	sub := d.tr.open("serviceclient.submit", root)
	st, err := cl.Submit(ctx, spec)
	d.tr.close(sub)
	tSub := time.Now()
	if err != nil {
		d.mu.Lock()
		d.out.Attempted++
		d.refused++
		d.out.fail("submit %s seed %d: %v", spec.Scenario, spec.Seed, err)
		d.mu.Unlock()
		return
	}
	strm := d.tr.open("serviceclient.stream", root)
	stream, tFirst, err := readStream(ctx, cl, st.ID)
	d.tr.close(strm)
	tDone := time.Now()
	stat := d.tr.open("serviceclient.status", root)
	final, serr := cl.Job(ctx, st.ID)
	d.tr.close(stat)
	d.tr.close(root)

	sum := sha256.Sum256(stream)
	hash := hex.EncodeToString(sum[:])
	d.mu.Lock()
	defer d.mu.Unlock()
	d.out.Attempted++
	switch {
	case err != nil:
		d.out.fail("job %.12s: reading the stream: %v", st.ID, err)
		return
	case serr != nil:
		d.out.fail("job %.12s: status: %v", st.ID, serr)
		return
	case final.State != service.StateDone:
		d.out.fail("job %.12s ended %s: %s", st.ID, final.State, final.Error)
		return
	case hash != final.TraceHash:
		d.out.fail("job %.12s: stream sha256 %.12s, trace hash %.12s", st.ID, hash, final.TraceHash)
		return
	}
	if want, ok := d.first[idx]; !ok {
		d.first[idx] = hash
	} else if hash != want {
		d.out.fail("job %.12s: stream differs from the spec's first stream", st.ID)
		return
	}
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }
	d.done++
	d.all = append(d.all, ms(t0, tDone))
	d.submit = append(d.submit, ms(t0, tSub))
	switch {
	case fresh:
		d.missDone = append(d.missDone, ms(t0, tDone))
		d.missFirst = append(d.missFirst, ms(t0, tFirst))
		d.executedSim += simsecOf(spec)
		if final.StartedAt != nil && final.FinishedAt != nil {
			d.queueWait = append(d.queueWait, ms(final.CreatedAt, *final.StartedAt))
			d.runMs = append(d.runMs, ms(*final.StartedAt, *final.FinishedAt))
		}
	case st.Cached:
		d.hitDone = append(d.hitDone, ms(t0, tDone))
		d.stream = append(d.stream, ms(tSub, tDone))
	}
}

// readStream reads a job's whole result stream and notes when its first
// line arrived.
func readStream(ctx context.Context, cl *serviceclient.Client, id string) ([]byte, time.Time, error) {
	body, err := cl.Results(ctx, id)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer body.Close()
	var buf bytes.Buffer
	var first time.Time
	r := bufio.NewReader(body)
	for {
		line, err := r.ReadBytes('\n')
		buf.Write(line)
		if first.IsZero() && len(line) > 0 {
			first = time.Now()
		}
		if errors.Is(err, io.EOF) {
			return buf.Bytes(), first, nil
		}
		if err != nil {
			return nil, first, err
		}
	}
}

// jobTracer records the client-side spans of every job. Its methods are
// no-ops on a nil tracer, so the untraced run takes the same path.
type jobTracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func (t *jobTracer) open(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.base).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent})
	return len(t.spans) - 1
}

func (t *jobTracer) close(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = time.Since(t.base).Nanoseconds()
}
