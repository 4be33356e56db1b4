package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"karyon/internal/trace"
	"karyon/internal/world"
)

const (
	// recordWindows is how long record-replay records: 30 simulated
	// seconds, six checkpoint intervals.
	recordWindows = 300
	// checkpointEvery is karyon-sim's default -checkpoint-every.
	checkpointEvery = 50
	// longReplay is how many windows past its checkpoint the longest
	// replay request runs. Short ranges keep the replay cost mostly the
	// serial build, parse and restore, whose speed wanders less on a
	// shared host than that of two-shard lockstep windows.
	longReplay = 5
)

// Replay request shapes. Each request picks a checkpoint at random and
// replays a range after it; cycling through three shapes keeps the cost
// distribution the same at every seed, so the median sits on the middle
// shape and the tail on the longest.
const (
	shapeRestore = iota // one window just after the checkpoint
	shapeShort          // a range ending 3 windows after the checkpoint
	shapeLong           // a range ending longReplay windows after it
	nShapes
)

// replayReq is one ReplayTrace request of the workload.
type replayReq struct {
	shape int
	opt   world.ReplayOptions
}

// replaySeq returns the workload's seeded request sequence generator.
func replaySeq(seed int64) func() replayReq {
	rng := rand.New(rand.NewSource(seed))
	i := 0
	return func() replayReq {
		shape := i % nShapes
		i++
		ck := uint64(checkpointEvery * (1 + rng.Intn(recordWindows/checkpointEvery-1)))
		end := ck + [nShapes]uint64{1, 3, longReplay}[shape]
		from := end - uint64(rng.Intn(int(end-ck)))
		return replayReq{shape: shape, opt: world.ReplayOptions{From: from, To: end}}
	}
}

// recordTrace attaches a recorder writing to w at t=0 and records
// recordWindows windows.
func recordTrace(seed int64, ws worldSpec, h *world.Highway, w io.Writer, tr *windowTracer, out *outcome) (*worldRun, error) {
	spec := world.TraceSpec{
		Scenario: "highway", Seed: seed, Shards: shards,
		Duration: recordWindows * ws.window(), Config: ws.cfg,
	}
	if err := h.RecordTo(w, spec, checkpointEvery); err != nil {
		return nil, err
	}
	if tr != nil {
		// Writes made before the first window (the header, if the
		// recorder flushes it at once) stay root spans rather than
		// children of window 1's barrier.
		tr.closeChildren()
	}
	r := newWorldRun(ws, h, tr, out)
	if err := r.ops(recordWindows / ws.chunk); err != nil {
		return nil, err
	}
	if err := h.FinishRecording(); err != nil {
		return nil, err
	}
	return r, nil
}

// replay issues one request and returns its latency and the windows it
// re-simulated; a *world.DivergenceError or any other error fails it.
func replay(data []byte, req replayReq, out *outcome) (float64, int, bool) {
	out.Attempted++
	t0 := time.Now()
	res, err := world.ReplayTrace(data, req.opt)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	switch {
	case err != nil:
		out.fail("replay %d:%d: %v", req.opt.From, req.opt.To, err)
		return 0, 0, false
	case res.To != req.opt.To:
		out.fail("replay %d:%d stopped at %d", req.opt.From, req.opt.To, res.To)
		return 0, 0, false
	}
	return ms, res.Windows, true
}

// replayLog is what a replay phase measured.
type replayLog struct {
	lat     [nShapes][]float64 // latency per request shape, ms
	seq     []float64          // every latency in request order, ms
	windows int                // windows re-simulated
	wallS   float64            // Σ latency, s
}

// replays issues the seeded request sequence until the budget is spent,
// then one range at width 1. pause, when set, runs between requests every
// budget/setupSamples, outside every request's timing.
func replays(seed int64, data []byte, budget time.Duration, out *outcome, pause func() error) (*replayLog, error) {
	l := &replayLog{}
	next := replaySeq(seed)
	start := time.Now()
	var due time.Duration
	for time.Since(start) < budget {
		if pause != nil && time.Since(start) >= due {
			if err := pause(); err != nil {
				return nil, err
			}
			due += budget / setupSamples
		}
		req := next()
		if ms, windows, ok := replay(data, req, out); ok {
			l.lat[req.shape] = append(l.lat[req.shape], ms)
			l.seq = append(l.seq, ms)
			l.windows += windows
			l.wallS += ms / 1e3
		}
	}
	// Width invariance: a range replayed on one shard must verify against
	// the two-shard recording too. Not a latency sample.
	one := next()
	one.opt.Shards = 1
	replay(data, one, out)
	return l, nil
}

// setupSamples is how many set-ups record-replay times besides the one it
// records on. A build takes ~20 ms, so back to back they would all fall
// into one burst of interference from outside the program; spread over
// the replay phase, their median does not.
const setupSamples = 20

func runRecordReplay(cfg runConfig) (*outcome, error) {
	ws := highway1200()
	if cfg.Traced {
		return runRecordReplayTraced(cfg, ws)
	}
	out := newOutcome()
	var setups []float64
	build := func() (*world.Highway, error) {
		t0 := time.Now()
		h, err := ws.build(cfg.Seed)
		setups = append(setups, time.Since(t0).Seconds())
		return h, err
	}
	h, err := build()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := recordTrace(cfg.Seed, ws, h, &buf, nil, out); err != nil {
		return nil, err
	}
	h = nil
	data := buf.Bytes()
	heap := liveHeap()
	l, err := replays(cfg.Seed, data, cfg.Budget, out, func() error {
		_, err := build()
		return err
	})
	if err != nil {
		return nil, err
	}
	out.Values["setup_s"] = median(setups)
	out.Samples["setup_s"] = len(setups)
	// Replayed, not recorded, simulated time: the recording runs the
	// two-shard lockstep world window after window, whose speed on a
	// shared host follows the neighbours' load (trace.record_simsec_per_s
	// keeps it, per layer).
	out.Values["simsec_per_s"] = ratio(float64(l.windows)*ws.window().Seconds(), l.wallS)
	out.Values["ops_per_s"] = ratio(float64(len(l.seq)), l.wallS)
	out.timing("op_ms", l.seq)
	out.Values["heap_mb"] = heap / 1e6
	runtime.KeepAlive(data)
	return out, nil
}

// sinkMeter is the trace sink as the traced run sees it: it counts the
// bytes the recorder writes and times each write as a span inside the
// barrier that issued it.
type sinkMeter struct {
	w     io.Writer
	tr    *windowTracer
	bytes int64
	ns    int64
}

func (m *sinkMeter) Write(p []byte) (int, error) {
	s := m.tr.now()
	n, err := m.w.Write(p)
	e := m.tr.now()
	m.bytes += int64(n)
	m.ns += e - s
	m.tr.children = append(m.tr.children, span{Name: "trace.sink_write", Start: s, End: e})
	return n, err
}

// runRecordReplayTraced records twice from the same seed, untraced and
// traced; the two traces must be byte-identical. It then times the trace
// layer's parse and replays a seeded request sequence for half the budget.
func runRecordReplayTraced(cfg runConfig, ws worldSpec) (*outcome, error) {
	out := newOutcome()
	h, err := ws.build(cfg.Seed)
	if err != nil {
		return nil, err
	}
	var plainBuf bytes.Buffer
	g0 := readGC()
	plain, err := recordTrace(cfg.Seed, ws, h, &plainBuf, nil, out)
	if err != nil {
		return nil, err
	}
	recordGo(out, g0, readGC(), recordWindows, float64(recordWindows)*ws.window().Seconds())
	// Keep only the untraced trace's hash, so the traced twin records with
	// the same live heap, and so the same GC pacing, as the untraced one.
	want, wantLen := sha256.Sum256(plainBuf.Bytes()), plainBuf.Len()
	plainBuf = bytes.Buffer{}
	h, plain.h = nil, nil
	runtime.GC()

	if h, err = ws.build(cfg.Seed); err != nil {
		return nil, err
	}
	tr := attachTracer(h)
	var buf bytes.Buffer
	sink := &sinkMeter{w: &buf, tr: tr}
	c0 := readWorldCounters(h)
	traced, err := recordTrace(cfg.Seed, ws, h, sink, tr, out)
	if err != nil {
		return nil, err
	}
	c1 := readWorldCounters(h)
	tr.closeChildren()
	if sha256.Sum256(buf.Bytes()) != want {
		out.fail("traced recording (%d B) differs from the untraced one (%d B)", buf.Len(), wantLen)
	}
	recordWindowLayers(out, tr, c0, c1)
	out.Values["trace.record_simsec_per_s"] = plain.simsecPerS()
	out.Values["bench.trace_overhead"] = ratio(traced.simsecPerS(), plain.simsecPerS()) - 1
	h, traced.h = nil, nil
	runtime.GC()

	data := buf.Bytes()
	simsec := float64(recordWindows) * ws.window().Seconds()
	out.Values["trace.bytes_per_window"] = float64(sink.bytes) / recordWindows
	out.Values["trace.bytes_per_simsec"] = float64(sink.bytes) / simsec
	out.Values["trace.sink_write_ms"] = float64(sink.ns) / 1e6
	var ckBar, otherBar []float64
	for i, b := range tr.barrier {
		if (i+1)%checkpointEvery == 0 {
			ckBar = append(ckBar, b)
		} else {
			otherBar = append(otherBar, b)
		}
	}
	out.Values["trace.checkpoint_barrier_ms"] = (median(ckBar) - median(otherBar)) / 1e6

	var parses []float64
	var contents *trace.Contents
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if contents, err = trace.Parse(data); err != nil {
			return nil, fmt.Errorf("parsing the recorded trace: %w", err)
		}
		parses = append(parses, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	out.Values["trace.parse_ms"] = median(parses)
	out.Samples["trace.parse_ms"] = len(parses)
	var ckBytes float64
	for _, ck := range contents.Checkpoints {
		ckBytes += float64(len(ck.State))
	}
	out.Values["trace.checkpoint_bytes"] = ratio(ckBytes, float64(len(contents.Checkpoints)))
	contents = nil

	heap0 := liveHeap()
	l, err := replays(cfg.Seed, data, cfg.Budget/2, out, nil)
	if err != nil {
		return nil, err
	}
	out.Values["go.retained_bytes_per_op"] = (liveHeap() - heap0) / float64(len(l.seq))
	runtime.KeepAlive(data)
	restore, long := median(l.lat[shapeRestore]), median(l.lat[shapeLong])
	out.Values["trace.restore_ms"] = restore
	out.Samples["trace.restore_ms"] = len(l.lat[shapeRestore])
	out.Values["trace.replay_ns_per_window"] = (long - restore) * 1e6 / (longReplay - 1)
	out.Samples["trace.replay_ns_per_window"] = len(l.lat[shapeLong])
	out.Spans = tr.spans
	return out, nil
}

// closeChildren keeps spans opened outside any window (writes before the
// first window and the recorder's final flush) as roots.
func (t *windowTracer) closeChildren() {
	for _, c := range t.children {
		c.Parent = -1
		t.spans = append(t.spans, c)
	}
	t.children = t.children[:0]
}
