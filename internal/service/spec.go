package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"karyon/internal/experiments"
	"karyon/internal/harness"
)

// JobSpec is the wire form of one simulation job: which scenario or
// experiment to run, the seed matrix, and every knob that shapes the
// simulated output. A spec is submitted as JSON to POST /v1/jobs; the
// daemon normalizes it (defaults applied, fields that do not apply to the
// chosen scenario cleared) and derives the job ID from the canonical form,
// so two submissions that mean the same run — whatever their field order
// or explicit-default spelling — land on the same job.
//
// Duration-typed knobs are Go duration strings ("30s", "2m"). Timeout is
// the only field excluded from the job identity: it caps execution wall
// time without changing what is simulated.
type JobSpec struct {
	// Scenario selects what to run: a world scenario (highway, megahighway,
	// intersection, encounter) or an experiment id from the registry
	// (E1..E16, E-MAC-S).
	Scenario string `json:"scenario"`
	// Seed and Replicas define the seed matrix harness.Seeds(Seed,
	// Replicas); seed 0 means the default base seed 1.
	Seed     int64 `json:"seed,omitempty"`
	Replicas int   `json:"replicas,omitempty"`
	// Shards is an execution knob: the simulated records are
	// byte-identical at every width. It stays part of the job identity so
	// a cached stream is always the output of the run it stands in for.
	Shards int `json:"shards,omitempty"`
	// Duration is the simulated duration (world scenarios; default 2m).
	Duration string `json:"duration,omitempty"`
	// Cars is the car count for highway/megahighway (0 = scenario default).
	Cars int `json:"cars,omitempty"`
	// Length is the megahighway ring circumference in meters (0 = default).
	Length float64 `json:"length,omitempty"`
	// Loss is the megahighway per-beacon loss probability. It is a pointer
	// so that an explicitly lossless channel ("loss": 0) stays
	// distinguishable from the omitted default (0.05).
	Loss *float64 `json:"loss,omitempty"`
	// V2VRange is the megahighway beacon reach in meters (0 = default).
	V2VRange float64 `json:"v2v_range,omitempty"`
	// Mode is the highway LoS policy: adaptive (default), fixed1..fixed3,
	// or reckless.
	Mode string `json:"mode,omitempty"`
	// FaultRate injects this many randomized fault-campaign events per
	// simulated minute on the highway (0 = none).
	FaultRate float64 `json:"fault_rate,omitempty"`
	// JamEvery/JamBurst add periodic V2V jam bursts (both must be set).
	JamEvery string `json:"jam_every,omitempty"`
	JamBurst string `json:"jam_burst,omitempty"`
	// Medium routes V2V through the slot-level sharded radio; Channels
	// sets its orthogonal channel count.
	Medium   bool `json:"medium,omitempty"`
	Channels int  `json:"channels,omitempty"`
	// FailAt is when the intersection's physical light fails (empty/0 =
	// never); NoBackup disables its virtual backup.
	FailAt   string `json:"fail_at,omitempty"`
	NoBackup bool   `json:"no_backup,omitempty"`
	// Geometry and Voice configure the avionic encounter.
	Geometry string `json:"geometry,omitempty"`
	Voice    bool   `json:"voice,omitempty"`
	// Short runs experiments at reduced fidelity (their -short shape).
	Short bool `json:"short,omitempty"`
	// Timeout caps the job's execution wall time as a Go duration string.
	// The daemon clamps it to its own -job-timeout. NOT part of the job
	// identity or cache key.
	Timeout string `json:"timeout,omitempty"`
}

// specVersion versions the canonical form. Bump it whenever the canonical
// layout or the meaning of any field changes, so stale archives can never
// be served for a semantically different run.
const specVersion = "karyon-job-v2"

// maxReplicas and maxShards bound the spec's count knobs. A spec is
// outside input, and both counts size allocations before anything runs:
// the seed matrix (CacheKey expands it at submit time) and one shard —
// plus one worker goroutine during a run — per count.
const (
	maxReplicas = 1 << 16
	maxShards   = 256
)

// scenarioKind classifies what a normalized spec runs.
type scenarioKind int

const (
	kindHighway scenarioKind = iota
	kindMegaHighway
	kindIntersection
	kindEncounter
	kindExperiment
)

// kind classifies the spec; for kindExperiment it also returns the
// registry entry.
func (s JobSpec) kind() (scenarioKind, experiments.Experiment, error) {
	switch s.Scenario {
	case "highway":
		return kindHighway, experiments.Experiment{}, nil
	case "megahighway":
		return kindMegaHighway, experiments.Experiment{}, nil
	case "intersection":
		return kindIntersection, experiments.Experiment{}, nil
	case "encounter":
		return kindEncounter, experiments.Experiment{}, nil
	}
	if e, ok := experiments.ByID(s.Scenario); ok {
		return kindExperiment, e, nil
	}
	return 0, experiments.Experiment{}, fmt.Errorf("unknown scenario %q", s.Scenario)
}

func parseDur(name, v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: %w", name, v, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("bad %s %q: negative", name, v)
	}
	return d, nil
}

// orDefault returns v, or def when v is zero or negative. A non-finite v
// is an error: NaN passes every comparison, so it must be named here.
func orDefault(name string, v, def float64) (float64, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad %s %v: want a finite number", name, v)
	}
	if v <= 0 {
		return def, nil
	}
	return v, nil
}

// Normalize validates the spec and rewrites it into its canonical
// spelling: defaults applied explicitly, duration strings re-rendered in
// Go's canonical form, and every field that does not apply to the chosen
// scenario cleared — so an irrelevant knob can neither split the cache nor
// smuggle two names for the same run. The returned spec is what the daemon
// stores, hashes, and executes.
func (s JobSpec) Normalize() (JobSpec, error) {
	kind, _, err := s.kind()
	if err != nil {
		return JobSpec{}, err
	}
	n := JobSpec{Scenario: s.Scenario}

	// Seed matrix + execution-shape knobs, shared by every kind.
	n.Seed = s.Seed
	if n.Seed == 0 {
		n.Seed = 1
	}
	if s.Replicas > maxReplicas {
		return JobSpec{}, fmt.Errorf("bad replicas %d: want at most %d", s.Replicas, maxReplicas)
	}
	if s.Shards > maxShards {
		return JobSpec{}, fmt.Errorf("bad shards %d: want at most %d", s.Shards, maxShards)
	}
	n.Replicas = max(1, s.Replicas)
	n.Shards = max(1, s.Shards)
	if s.Timeout != "" {
		d, err := parseDur("timeout", s.Timeout)
		if err != nil {
			return JobSpec{}, err
		}
		if d > 0 {
			n.Timeout = d.String()
		}
	}

	dur := 2 * time.Minute
	if s.Duration != "" {
		if dur, err = parseDur("duration", s.Duration); err != nil {
			return JobSpec{}, err
		}
		if dur == 0 {
			return JobSpec{}, fmt.Errorf("bad duration %q: zero", s.Duration)
		}
	}
	jamEvery, err := parseDur("jam_every", s.JamEvery)
	if err != nil {
		return JobSpec{}, err
	}
	jamBurst, err := parseDur("jam_burst", s.JamBurst)
	if err != nil {
		return JobSpec{}, err
	}
	setJam := func() {
		if jamEvery > 0 && jamBurst > 0 {
			n.JamEvery, n.JamBurst = jamEvery.String(), jamBurst.String()
		}
	}
	setMedium := func() {
		n.Medium = s.Medium
		n.Channels = 1
		if s.Medium && s.Channels > 1 {
			n.Channels = s.Channels
		}
	}

	switch kind {
	case kindHighway:
		n.Duration = dur.String()
		n.Cars = s.Cars
		if n.Cars <= 0 {
			n.Cars = 30
		}
		n.Mode = s.Mode
		if n.Mode == "" {
			n.Mode = "adaptive"
		}
		switch n.Mode {
		case "adaptive", "fixed1", "fixed2", "fixed3", "reckless":
		default:
			return JobSpec{}, fmt.Errorf("unknown mode %q", s.Mode)
		}
		if math.IsNaN(s.FaultRate) || s.FaultRate < 0 || math.IsInf(s.FaultRate, 1) {
			return JobSpec{}, fmt.Errorf("bad fault_rate %v: want a finite rate >= 0", s.FaultRate)
		}
		n.FaultRate = s.FaultRate
		setJam()
		setMedium()
	case kindMegaHighway:
		n.Duration = dur.String()
		n.Cars = s.Cars
		if n.Cars <= 0 {
			n.Cars = 200
		}
		if n.Length, err = orDefault("length", s.Length, 10000); err != nil {
			return JobSpec{}, err
		}
		if n.V2VRange, err = orDefault("v2v_range", s.V2VRange, 300); err != nil {
			return JobSpec{}, err
		}
		loss := 0.05
		if s.Loss != nil {
			loss = *s.Loss
		}
		if !(loss >= 0 && loss <= 1) { // NaN fails both comparisons
			return JobSpec{}, fmt.Errorf("bad loss %v: want [0,1]", loss)
		}
		n.Loss = &loss
		setJam()
		setMedium()
	case kindIntersection:
		n.Duration = dur.String()
		failAt, err := parseDur("fail_at", s.FailAt)
		if err != nil {
			return JobSpec{}, err
		}
		if failAt > 0 {
			n.FailAt = failAt.String()
		}
		n.NoBackup = s.NoBackup
		setJam()
		setMedium()
	case kindEncounter:
		n.Geometry = s.Geometry
		if n.Geometry == "" {
			n.Geometry = "leveled-crossing"
		}
		switch n.Geometry {
		case "same-direction", "leveled-crossing", "level-change":
		default:
			return JobSpec{}, fmt.Errorf("unknown geometry %q", s.Geometry)
		}
		n.Voice = s.Voice
		n.Shards = 1 // single-kernel scenario: shards never apply
	case kindExperiment:
		n.Medium = s.Medium
		n.Short = s.Short
	}
	return n, nil
}

// canonicalSpec is the exact byte layout hashed into the cache key: every
// field explicit (no omitempty — absent and zero must hash identically to
// the normalized default), the seed matrix fully expanded, and the build
// fingerprint folded in. Field order is fixed by the struct, so the hash
// is independent of the JSON field order a client submitted.
type canonicalSpec struct {
	Version   string  `json:"v"`
	Build     string  `json:"build"`
	Scenario  string  `json:"scenario"`
	Seeds     []int64 `json:"seeds"`
	Shards    int     `json:"shards"`
	Duration  string  `json:"duration"`
	Cars      int     `json:"cars"`
	Length    float64 `json:"length"`
	Loss      float64 `json:"loss"`
	LossSet   bool    `json:"loss_set"`
	V2VRange  float64 `json:"v2v_range"`
	Mode      string  `json:"mode"`
	FaultRate float64 `json:"fault_rate"`
	JamEvery  string  `json:"jam_every"`
	JamBurst  string  `json:"jam_burst"`
	Medium    bool    `json:"medium"`
	Channels  int     `json:"channels"`
	FailAt    string  `json:"fail_at"`
	NoBackup  bool    `json:"no_backup"`
	Geometry  string  `json:"geometry"`
	Voice     bool    `json:"voice"`
	Short     bool    `json:"short"`
}

// CacheKey returns the content address of the run this spec describes
// under the given build fingerprint: the hex SHA-256 of the canonical
// form. Every run is a pure function of (scenario config, seed matrix,
// build), so the key fully identifies the result bytes; it doubles as the
// deterministic job ID, which is what makes retried submissions dedupe
// instead of double-executing. Timeout is deliberately absent.
func (s JobSpec) CacheKey(build string) (string, error) {
	n, err := s.Normalize()
	if err != nil {
		return "", err
	}
	c := canonicalSpec{
		Version:   specVersion,
		Build:     build,
		Scenario:  n.Scenario,
		Seeds:     harness.Seeds(n.Seed, n.Replicas),
		Shards:    n.Shards,
		Duration:  n.Duration,
		Cars:      n.Cars,
		Length:    n.Length,
		V2VRange:  n.V2VRange,
		Mode:      n.Mode,
		FaultRate: n.FaultRate,
		JamEvery:  n.JamEvery,
		JamBurst:  n.JamBurst,
		Medium:    n.Medium,
		Channels:  n.Channels,
		FailAt:    n.FailAt,
		NoBackup:  n.NoBackup,
		Geometry:  n.Geometry,
		Voice:     n.Voice,
		Short:     n.Short,
	}
	if n.Loss != nil {
		c.Loss, c.LossSet = *n.Loss, true
	}
	b, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Build returns the runnable harness.Scenario for a normalized spec.
// It is the one mapping from a job's knobs to a run: the daemon executes
// it, and karyon-sim runs it in-process.
func (s JobSpec) Build() (harness.Scenario, error) {
	kind, exp, err := s.kind()
	if err != nil {
		return nil, err
	}
	dur, _ := parseDur("duration", s.Duration)
	jamEvery, _ := parseDur("jam_every", s.JamEvery)
	jamBurst, _ := parseDur("jam_burst", s.JamBurst)
	switch kind {
	case kindHighway:
		return harness.HighwayScenario{
			Duration: dur, Cars: s.Cars, Mode: s.Mode,
			SensorFaultRate: s.FaultRate, JamEvery: jamEvery, JamBurst: jamBurst,
			Medium: s.Medium, Channels: s.Channels,
		}, nil
	case kindMegaHighway:
		loss := 0.0
		if s.Loss != nil {
			loss = *s.Loss
		}
		return harness.MegaHighwayScenario{
			Duration: dur, Cars: s.Cars, Length: s.Length, Loss: loss, V2VRange: s.V2VRange,
			Medium: s.Medium, Channels: s.Channels, JamEvery: jamEvery, JamBurst: jamBurst,
		}, nil
	case kindIntersection:
		failAt, _ := parseDur("fail_at", s.FailAt)
		return harness.IntersectionScenario{
			Duration: dur, FailAt: failAt, VirtualBackup: !s.NoBackup,
			Medium: s.Medium, Channels: s.Channels, JamEvery: jamEvery, JamBurst: jamBurst,
		}, nil
	case kindEncounter:
		return harness.EncounterScenario{Geometry: s.Geometry, Collaborative: !s.Voice}, nil
	default:
		return experiments.Harnessed{Exp: exp, Short: s.Short, Medium: s.Medium}, nil
	}
}

// Options builds the harness options for a normalized spec; parallel is
// the replica pool width (wall time only, never identity).
func (s JobSpec) Options(parallel int) harness.Options {
	return harness.Options{Seed: s.Seed, Replicas: s.Replicas, Parallel: parallel, Shards: s.Shards}
}

// timeout returns the job's effective execution deadline: its own Timeout
// clamped to the server maximum. serverMax 0 means the server is
// uncapped; the result 0 means no deadline at all.
func (s JobSpec) timeout(serverMax time.Duration) time.Duration {
	d, _ := parseDur("timeout", s.Timeout)
	if serverMax <= 0 {
		return d
	}
	if d <= 0 || d > serverMax {
		return serverMax
	}
	return d
}
