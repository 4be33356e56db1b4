package world

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"karyon/internal/sensor"
	"karyon/internal/sim"
	"karyon/internal/trace"
	"karyon/internal/wireless"
)

// goldenCheckpoints are the SHA-256 sums of the window-40 checkpoints of
// the worlds TestCheckpointBytesGolden records. They may change only
// together with a deliberate behaviour change or a trace.Version bump.
var goldenCheckpoints = []struct {
	name   string
	medium bool
	cars   int
	loss   float64
	sha256 string
}{
	// The radio world without loss: no receiver draws any loss stream.
	{"medium", true, 12, 0, "c738250db573da45a3cdfe735ece624b39a5f0e3447cc5b5d7fcac03c6087e58"},
	// Lossy worlds pin the receivers' loss streams: the cars' rx streams
	// on the abstract path, the medium's per-receiver streams on the radio.
	{"abstract-lossy", false, 24, 0.2, "f84d1591192dba031ada79cf4c3065c00502a77376d64d43d8de4bd40c3fdb69"},
	{"medium-lossy", true, 24, 0.2, "0a860f953af153ad490fca1bb05cdc0159c3b6ce9dd06ccc19b01303d44bfd9c"},
}

// TestCheckpointBytesGolden pins the checkpoint encoding across builds:
// the same world must checkpoint to the same bytes, so a refactor of the
// state codecs that reorders or drops a field fails here rather than in a
// replay of an old trace.
func TestCheckpointBytesGolden(t *testing.T) {
	for _, g := range goldenCheckpoints {
		t.Run(g.name, func(t *testing.T) {
			cfg := DefaultHighwayConfig()
			cfg.Cars = g.cars
			cfg.Medium = g.medium
			cfg.Loss = g.loss
			data := recordTrace(t, 7, 2, cfg, 5*sim.Second, 20, testJams(), 0)
			c, err := trace.Parse(data)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			ck, ok := c.Checkpoints[40]
			if !ok {
				t.Fatal("no checkpoint at window 40")
			}
			sum := sha256.Sum256(ck.State)
			if got := hex.EncodeToString(sum[:]); got != g.sha256 {
				t.Fatalf("checkpoint bytes changed: sha256 %s, want %s (%d bytes)", got, g.sha256, len(ck.State))
			}
		})
	}
}

// The restore fuzz world: a small two-lane highway, recorded for 3 s with
// a checkpoint at window 20.
const (
	fuzzSeed   = 5
	fuzzWindow = 20
)

func fuzzConfig(medium bool) HighwayConfig {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 8
	cfg.Length = 800
	cfg.Lanes = 2
	cfg.Loss = 0.1
	cfg.Medium = medium
	return cfg
}

// fuzzTrace records the fuzz world with a jam burst inside the recording.
func fuzzTrace(t testing.TB, medium bool) []byte {
	jams := []JamSpec{{At: sim.Second, Burst: 500 * sim.Millisecond}}
	return recordTrace(t, fuzzSeed, 2, fuzzConfig(medium), 3*sim.Second, fuzzWindow, jams, 0)
}

// startedFuzzWorld builds and starts a fresh fuzz world to restore into.
func startedFuzzWorld(t testing.TB, medium bool) *Highway {
	t.Helper()
	h, err := BuildHighway(fuzzSeed, 2, fuzzConfig(medium))
	if err != nil {
		t.Fatalf("BuildHighway: %v", err)
	}
	if err := h.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return h
}

// FuzzRestoreCheckpoint feeds hostile checkpoint bytes to a fresh world's
// restore. No input may panic, and a restore that succeeds must be a
// fixed point of the codec: encoding the restored world, restoring that
// into another fresh world and encoding again gives the same bytes.
func FuzzRestoreCheckpoint(f *testing.F) {
	for _, medium := range []bool{false, true} {
		c, err := trace.Parse(fuzzTrace(f, medium))
		if err != nil {
			f.Fatalf("Parse: %v", err)
		}
		f.Add(medium, c.Checkpoints[fuzzWindow].State)
	}
	edge := sim.Time(fuzzWindow) * DefaultHighwayConfig().ControlPeriod
	f.Fuzz(func(t *testing.T, medium bool, state []byte) {
		h := startedFuzzWorld(t, medium)
		if err := h.restoreCheckpoint(state, edge); err != nil {
			return
		}
		var once, twice trace.Enc
		h.encodeCheckpoint(&once)
		h2 := startedFuzzWorld(t, medium)
		if err := h2.restoreCheckpoint(once.Bytes(), edge); err != nil {
			t.Fatalf("restoring an encoded world: %v", err)
		}
		h2.encodeCheckpoint(&twice)
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("encode → decode → encode is not a fixed point (%d vs %d bytes)", once.Len(), twice.Len())
		}
	})
}

// TestRestoreIntoFreshWorldIsFixedPoint restores a recorded checkpoint
// of a world whose cars have switched their level of service into a
// freshly built world, as ReplayTrace does, and encodes it again: the
// bytes must be the checkpoint's. A restore that kept any of the fresh
// world's state (a shorter switch count) would encode differently.
func TestRestoreIntoFreshWorldIsFixedPoint(t *testing.T) {
	edge := sim.Time(fuzzWindow) * DefaultHighwayConfig().ControlPeriod
	for _, medium := range []bool{false, true} {
		c, err := trace.Parse(fuzzTrace(t, medium))
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		state := c.Checkpoints[fuzzWindow].State
		h := startedFuzzWorld(t, medium)
		if err := h.restoreCheckpoint(state, edge); err != nil {
			t.Fatalf("medium=%v: restoreCheckpoint: %v", medium, err)
		}
		var e trace.Enc
		h.encodeCheckpoint(&e)
		if !bytes.Equal(e.Bytes(), state) {
			t.Fatalf("medium=%v: the restored world encodes to %d bytes that differ from the %d-byte checkpoint", medium, e.Len(), len(state))
		}
		switches := 0
		for _, car := range h.cars {
			switches += car.fn.Switches
		}
		if switches == 0 {
			t.Fatalf("medium=%v: no car switched its level of service before the checkpoint", medium)
		}
	}
}

// readFuzzSeed parses a FuzzRestoreCheckpoint corpus file: the go test
// fuzz v1 header, a bool line and a []byte line.
func readFuzzSeed(t *testing.T, path string) (bool, []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a two-value fuzz corpus file", path)
	}
	medium, err := strconv.ParseBool(strings.TrimSuffix(strings.TrimPrefix(lines[1], "bool("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	state, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return medium, []byte(state)
}

// withCheckpoint rewrites a trace with the checkpoint at window k replaced
// by state.
func withCheckpoint(t *testing.T, data []byte, k uint64, state []byte) []byte {
	t.Helper()
	c, err := trace.Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, &c.Header)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Windows {
		if err := w.WriteWindow(&c.Windows[i]); err != nil {
			t.Fatal(err)
		}
		if ck, ok := c.Checkpoints[c.Windows[i].Index]; ok {
			if ck.Index == k {
				ck.State = state
			}
			if err := w.WriteCheckpoint(&ck); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(&c.End); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayRejectsHostileCheckpoints replays a trace whose checkpoint is
// each hostile FuzzRestoreCheckpoint seed: a negative Switches length, a
// functionality count that does not match the manager, a radio receiver
// outside the world, a fused sensor's error tag that names no error, and
// a keyed set that is not in strictly ascending key order (a repeated
// runtime indicator, a repeated reservation). Each must be a decode error
// from ReplayTrace, not a panic and not a divergence.
func TestReplayRejectsHostileCheckpoints(t *testing.T) {
	traces := map[bool][]byte{}
	for _, name := range []string{
		"negative-switches", "functionality-count", "unknown-receiver",
		"unknown-error-tag", "repeated-indicator", "repeated-reservation",
	} {
		t.Run(name, func(t *testing.T) {
			medium, state := readFuzzSeed(t, filepath.Join("testdata", "fuzz", "FuzzRestoreCheckpoint", name))
			if traces[medium] == nil {
				traces[medium] = fuzzTrace(t, medium)
			}
			data := withCheckpoint(t, traces[medium], fuzzWindow, state)
			_, err := ReplayTrace(data, ReplayOptions{From: fuzzWindow + 1, To: fuzzWindow + 2})
			if !errors.Is(err, trace.ErrCorrupt) {
				t.Fatalf("ReplayTrace = %v, want a decode error", err)
			}
			t.Log(err)
		})
	}
}

// notCheckpointed lists the Car fields a checkpoint leaves out, each with
// the reason it may.
var notCheckpointed = map[string]string{
	"deliverFn": "closure: the cached enlistment as a window's beacon sender, built by NewHighway",
	"pend":      "scratch: the pending beacon, drained at the barrier before a checkpoint",
	"pendTx":    "scratch: the pending frame, resolved at the barrier before a checkpoint",
	"inbox":     "scratch: the delivery stage's batch of heard beacons, merged into table before the stage returns",
}

// notCheckpointedWithin lists the fields of a car's components a
// checkpoint leaves out, keyed by type and field name.
var notCheckpointedWithin = map[string]string{
	"core.Functionality.d":             "design-time, immutable, shared by every car",
	"core.RuntimeInfo.keys":            "design-time, immutable, shared by every car",
	"core.Gate.env":                    "design-time, immutable, shared by every car",
	"sensor.FaultManagement.detectors": "design-time, immutable, shared by every car",
	"core.Functionality.LastSwitch":    "output-only: the latest transition, read by E1",
	"sensor.Reliable.readings":         "scratch: per-Read fusion buffer",
	"sensor.Reliable.intervals":        "scratch: per-Read fusion buffer",
	"sensor.Reliable.edges":            "scratch: per-Read fusion buffer",
	"wireless.ShardedMedium.onAir":     "scratch: the contention pass's on-air index, reused across barriers",
	"wireless.ShardedMedium.keys":      "scratch: the contention pass's sort keys, reused across barriers",
	"wireless.ShardedMedium.parts":     "scratch: per-partition visit contexts, built on first use and reused",
}

// highwayNotCheckpointed lists the Highway fields a checkpoint leaves out
// or that the wall does not compare, each with the reason.
var highwayNotCheckpointed = map[string]string{
	"cars":      "the cars themselves: compared field by field by the Car wall",
	"design":    "design-time, immutable, shared by every car",
	"sk":        "kernel: rewound by Warp; its outboxes are drained at the barrier before a checkpoint",
	"TimeGaps":  "output-only histogram: never feeds back into behaviour",
	"inaccess":  "output-only histogram: never feeds back into behaviour",
	"stageFn":   "closure: the cached delivery stage, built by NewHighway",
	"parts":     "scratch: per-shard delivery contexts, reset by every delivery stage",
	"senders":   "scratch: the window's beacon senders, drained at the barrier before a checkpoint",
	"bucket":    "scratch: the abstract path's per-id sender bucket, emptied by every id sort",
	"outgoing":  "scratch: per-shard arc hand-offs, drained at the barrier before a checkpoint",
	"nextOcc":   "scratch: collision-sweep buffers, rebuilt by every accounting pass",
	"groupEnd":  "scratch: collision-sweep buffers, rebuilt by every accounting pass",
	"sweepLead": "scratch: collision-sweep buffers, rebuilt by every accounting pass",
	"sweepGap":  "scratch: collision-sweep buffers, rebuilt by every accounting pass",
}

// TestCheckpointCompleteness is the completeness wall for Highway and Car:
// every field is either on highwayNotCheckpointed or notCheckpointed, or
// survives encode → restoreCheckpoint into a freshly built world
// unchanged. A new field fails here until a State method visits it, the
// restore rebuilds it, or it is listed with a reason. The worlds run long enough, with a
// slow leader and a forced brake, for lane changes, emergency brakes and
// both beacon paths (abstract loss and the radio) to leave state behind.
func TestCheckpointCompleteness(t *testing.T) {
	typ, htyp := reflect.TypeOf(Car{}), reflect.TypeOf(Highway{})
	for name := range notCheckpointed {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("notCheckpointed names %q, which Car no longer has", name)
		}
	}
	for name := range highwayNotCheckpointed {
		if _, ok := htyp.FieldByName(name); !ok {
			t.Errorf("highwayNotCheckpointed names %q, which Highway no longer has", name)
		}
	}
	for _, medium := range []bool{false, true} {
		build := func() *Highway {
			h := startedFuzzWorld(t, medium)
			h.cars[0].SetCruiseSpeed(8)
			h.Schedule(sim.Second, func() { h.JamV2V(500 * sim.Millisecond) })
			h.Schedule(3*sim.Second, func() { h.cars[3].ForceBrake(3*sim.Second, 10*sim.Second) })
			return h
		}
		h := build()
		// The delivery stage runs inside the world's window hook; this one
		// runs after it and finds every batch merged and emptied.
		h.sk.OnWindow(func(edge sim.Time) {
			for _, c := range h.cars {
				if len(c.inbox) != 0 {
					t.Fatalf("medium=%v: car %d holds %d unmerged beacons at %v", medium, c.ID, len(c.inbox), edge)
				}
			}
		})
		if err := h.Run(12 * sim.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		// The wall only sees what the run left behind: the state tables
		// must hold beaconed accelerations, which the checkpoint writes
		// apart from the states.
		accels := 0
		for _, c := range h.cars {
			for _, from := range h.cars {
				if a, ok := c.table.Accel(wireless.NodeID(from.ID)); ok && a != 0 {
					accels++
				}
			}
		}
		if accels == 0 {
			t.Fatalf("medium=%v: no state table holds a nonzero acceleration", medium)
		}
		var e trace.Enc
		h.encodeCheckpoint(&e)
		fresh := build()
		if err := fresh.restoreCheckpoint(e.Bytes(), h.sk.Now()); err != nil {
			t.Fatalf("restoreCheckpoint: %v", err)
		}
		for i := range h.cars {
			want, got := reflect.ValueOf(h.cars[i]).Elem(), reflect.ValueOf(fresh.cars[i]).Elem()
			for f := 0; f < typ.NumField(); f++ {
				name := typ.Field(f).Name
				if _, skip := notCheckpointed[name]; skip {
					continue
				}
				var diff []string
				sameState(want.Field(f), got.Field(f), "Car."+name, map[[2]uintptr]bool{}, &diff)
				for _, d := range diff {
					t.Errorf("medium=%v car %d: %s differs after a checkpoint restore: visit it in (*Car).state or list it in notCheckpointed", medium, i, d)
				}
			}
		}
		// A car reached from a Highway field (a shard's list, a sender)
		// compares by identity: the same car on both sides is already
		// covered above, a different one differs by ID.
		sameCar := map[[2]uintptr]bool{}
		for i := range h.cars {
			sameCar[[2]uintptr{reflect.ValueOf(h.cars[i]).Pointer(), reflect.ValueOf(fresh.cars[i]).Pointer()}] = true
		}
		want, got := reflect.ValueOf(h).Elem(), reflect.ValueOf(fresh).Elem()
		for f := 0; f < htyp.NumField(); f++ {
			name := htyp.Field(f).Name
			if _, skip := highwayNotCheckpointed[name]; skip {
				continue
			}
			var diff []string
			sameState(want.Field(f), got.Field(f), "Highway."+name, maps.Clone(sameCar), &diff)
			for _, d := range diff {
				t.Errorf("medium=%v: %s differs after a checkpoint restore: visit it in (*Highway).checkpoint, rebuild it in restoreCheckpoint or list it in highwayNotCheckpointed", medium, d)
			}
		}
	}
}

// sameState is reflect.DeepEqual for checkpointed state, with five
// differences: func values (construction-time closures) compare by
// nil-ness, nil and empty slices and maps are equal, floats compare by
// bits so a restored NaN matches, a sensor.History ring compares by its
// readings newest first, not by where in its buffer they sit, and fields
// on notCheckpointedWithin are skipped. Differences are appended to diff
// by path.
func sameState(a, b reflect.Value, path string, seen map[[2]uintptr]bool, diff *[]string) {
	if a.Type() != b.Type() {
		*diff = append(*diff, path+" (type)")
		return
	}
	if a.Type() == reflect.TypeOf(sensor.History{}) && a.CanAddr() && b.CanAddr() {
		ha := (*sensor.History)(a.Addr().UnsafePointer())
		hb := (*sensor.History)(b.Addr().UnsafePointer())
		if ha.Len() != hb.Len() {
			*diff = append(*diff, path+" (length)")
			return
		}
		for i := 0; i < ha.Len(); i++ {
			ra, _ := ha.At(i)
			rb, _ := hb.At(i)
			sameState(reflect.ValueOf(ra), reflect.ValueOf(rb), path+".At("+strconv.Itoa(i)+")", seen, diff)
		}
		return
	}
	switch a.Kind() {
	case reflect.Func:
		if a.IsNil() != b.IsNil() {
			*diff = append(*diff, path)
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				*diff = append(*diff, path)
			}
			return
		}
		if a.Kind() == reflect.Pointer {
			key := [2]uintptr{a.Pointer(), b.Pointer()}
			if seen[key] {
				return
			}
			seen[key] = true
		}
		sameState(a.Elem(), b.Elem(), path, seen, diff)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			field := a.Type().Field(i).Name
			if _, skip := notCheckpointedWithin[a.Type().String()+"."+field]; skip {
				continue
			}
			sameState(a.Field(i), b.Field(i), path+"."+field, seen, diff)
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			*diff = append(*diff, path+" (length)")
			return
		}
		for i := 0; i < a.Len(); i++ {
			sameState(a.Index(i), b.Index(i), path+"["+strconv.Itoa(i)+"]", seen, diff)
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			*diff = append(*diff, path+" (size)")
			return
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				*diff = append(*diff, path+" (keys)")
				return
			}
			sameState(it.Value(), bv, fmt.Sprintf("%s[%v]", path, it.Key()), seen, diff)
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			*diff = append(*diff, path)
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			*diff = append(*diff, path)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			*diff = append(*diff, path)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			*diff = append(*diff, path)
		}
	case reflect.String:
		if a.String() != b.String() {
			*diff = append(*diff, path)
		}
	default:
		*diff = append(*diff, path+" (unsupported kind "+a.Kind().String()+")")
	}
}

// restoreAllocsPerCar bounds the allocations of one restoreCheckpoint
// into a freshly built world, per car. The decoders size each slice once
// and share repeated strings, and the safety kernel's indicators land in
// the slots of the shared design's table without allocating, so a car's
// restore allocates about eight objects (8.1 measured): each sensor
// history and the state table once, and the first of each run of equal
// strings. A build with the race detector allocates 14.1, which the
// budget still admits.
const restoreAllocsPerCar = 15

// TestRestoreAllocBudget restores a checkpoint of a world at the
// reference density into fresh worlds, as ReplayTrace does, and bounds the
// allocations per car.
func TestRestoreAllocBudget(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Cars = 120
	cfg.Length = 3600
	const window = 30
	c, err := trace.Parse(recordTrace(t, 3, 2, cfg, 4*sim.Second, window, nil, 0))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ck := c.Checkpoints[window]
	best := uint64(math.MaxUint64)
	for range 3 {
		h, err := BuildHighway(3, 2, cfg)
		if err != nil {
			t.Fatalf("BuildHighway: %v", err)
		}
		if err := h.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err = h.restoreCheckpoint(ck.State, sim.Time(ck.Edge))
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatalf("restoreCheckpoint: %v", err)
		}
		best = min(best, m1.Mallocs-m0.Mallocs)
	}
	perCar := float64(best) / float64(cfg.Cars)
	t.Logf("restore: %d allocations, %.1f per car", best, perCar)
	if perCar > restoreAllocsPerCar {
		t.Fatalf("restore allocates %.1f objects per car, budget %d", perCar, restoreAllocsPerCar)
	}
}

// TestRestoreIntoUsedWorld rewinds a world that has run on past a
// checkpoint back to it. The decoders refill the slices they restore in
// place, so one that forgot to truncate would leave readings or peers of
// the later windows behind: the rewound world must encode back to exactly
// the checkpoint's bytes and run on to reproduce the recorded windows.
func TestRestoreIntoUsedWorld(t *testing.T) {
	const k, end = 10, 40
	period := DefaultHighwayConfig().ControlPeriod
	for _, medium := range []bool{false, true} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("medium=%v/shards=%d", medium, shards), func(t *testing.T) {
				h, data := recordWorld(t, fuzzSeed, shards, fuzzConfig(medium), end*period, k, nil, 0)
				c, err := trace.Parse(data)
				if err != nil {
					t.Fatalf("Parse: %v", err)
				}
				ck := c.Checkpoints[k]
				if err := h.restoreCheckpoint(ck.State, sim.Time(ck.Edge)); err != nil {
					t.Fatalf("restoreCheckpoint: %v", err)
				}
				var e trace.Enc
				h.encodeCheckpoint(&e)
				if !bytes.Equal(e.Bytes(), ck.State) {
					t.Fatalf("the rewound world encodes to %d bytes that differ from the %d-byte checkpoint", e.Len(), len(ck.State))
				}
				h.rec = &recorder{expect: c.Windows, strict: true, idx: k}
				if err := h.Run((end - k) * period); err != nil {
					t.Fatalf("Run: %v", err)
				}
				if h.rec.err != nil {
					t.Fatal(h.rec.err)
				}
				if h.rec.idx != end {
					t.Fatalf("ran to window %d, want %d", h.rec.idx, end)
				}
			})
		}
	}
}

// TestRestoreAndContinue is the exactness property every replay rests on:
// for a lossy world recorded with a checkpoint after every window, on the
// abstract path and over the radio, restoring any checkpoint at width 1
// or 2 and running on to the end reproduces every recorded window. The
// last of them carries the recorded final digest, which Parse has checked
// against the end marker.
func TestRestoreAndContinue(t *testing.T) {
	jams := []JamSpec{{At: sim.Second, Burst: 500 * sim.Millisecond}}
	for _, medium := range []bool{false, true} {
		data := recordTrace(t, fuzzSeed, 2, fuzzConfig(medium), 3*sim.Second, 1, jams, 0)
		c, err := trace.Parse(data)
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		last := uint64(len(c.Windows))
		for _, shards := range []int{1, 2} {
			for k := uint64(1); k < last; k++ {
				res, err := ReplayTrace(data, ReplayOptions{From: k + 1, Shards: shards})
				if err != nil {
					t.Fatalf("medium=%v shards=%d: continuing from window %d: %v", medium, shards, k, err)
				}
				if res.Checkpoint != k || res.To != last {
					t.Fatalf("medium=%v shards=%d: replayed %d:%d from checkpoint %d, want %d:%d from %d",
						medium, shards, res.From, res.To, res.Checkpoint, k+1, last, k)
				}
			}
		}
	}
}
