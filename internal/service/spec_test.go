package service

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

const testBuild = "test-build-0001"

func mustKey(t *testing.T, spec JobSpec) string {
	t.Helper()
	key, err := spec.CacheKey(testBuild)
	if err != nil {
		t.Fatalf("CacheKey(%+v): %v", spec, err)
	}
	if !validKey.MatchString(key) {
		t.Fatalf("key %q is not 64 hex chars", key)
	}
	return key
}

// megahighwaySpellings are one megahighway job spelled four ways.
var megahighwaySpellings = []string{
	`{"scenario":"megahighway","seed":7,"replicas":3,"cars":120,"duration":"30s","medium":true,"channels":2}`,
	`{"channels":2,"medium":true,"duration":"30s","cars":120,"replicas":3,"seed":7,"scenario":"megahighway"}`,
	`{"duration":"30s","scenario":"megahighway","medium":true,"seed":7,"cars":120,"channels":2,"replicas":3}`,
	// Defaults spelled out explicitly must not split the key either.
	`{"scenario":"megahighway","seed":7,"replicas":3,"cars":120,"duration":"30s","medium":true,"channels":2,` +
		`"shards":1,"length":10000,"v2v_range":300,"loss":0.05}`,
}

// TestCacheKeyFieldOrderInvariance: the same job spelled with JSON fields
// in any order — and with defaults explicit or omitted — hashes to the
// same key. The key must be a function of what the spec means, not of how
// the client serialized it.
func TestCacheKeyFieldOrderInvariance(t *testing.T) {
	keys := map[string]bool{}
	for _, raw := range megahighwaySpellings {
		var spec JobSpec
		if err := json.Unmarshal([]byte(raw), &spec); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		keys[mustKey(t, spec)] = true
	}
	if len(keys) != 1 {
		t.Fatalf("equivalent spellings produced %d distinct keys: %v", len(keys), keys)
	}
}

// TestCacheKeyDurationSpelling: "90s" and "1m30s" are the same duration
// and must be the same job.
func TestCacheKeyDurationSpelling(t *testing.T) {
	a := mustKey(t, JobSpec{Scenario: "highway", Duration: "90s"})
	b := mustKey(t, JobSpec{Scenario: "highway", Duration: "1m30s"})
	if a != b {
		t.Fatalf("equivalent duration spellings split the key")
	}
}

// TestCacheKeyKnobSensitivity: every knob that is part of the job
// identity — including the execution-shape knob shards — must change the
// key, and every mutation must yield a distinct key.
func TestCacheKeyKnobSensitivity(t *testing.T) {
	loss01 := 0.1
	base := JobSpec{Scenario: "megahighway", Seed: 7, Replicas: 2, Duration: "30s"}
	mutations := map[string]JobSpec{
		"seed":      {Scenario: "megahighway", Seed: 8, Replicas: 2, Duration: "30s"},
		"replicas":  {Scenario: "megahighway", Seed: 7, Replicas: 3, Duration: "30s"},
		"shards":    {Scenario: "megahighway", Seed: 7, Replicas: 2, Duration: "30s", Shards: 2},
		"duration":  {Scenario: "megahighway", Seed: 7, Replicas: 2, Duration: "45s"},
		"cars":      {Scenario: "megahighway", Seed: 7, Replicas: 2, Duration: "30s", Cars: 150},
		"length":    {Scenario: "megahighway", Seed: 7, Replicas: 2, Duration: "30s", Length: 20000},
		"loss":      {Scenario: "megahighway", Seed: 7, Replicas: 2, Duration: "30s", Loss: &loss01},
		"v2v_range": {Scenario: "megahighway", Seed: 7, Replicas: 2, Duration: "30s", V2VRange: 400},
		"medium":    {Scenario: "megahighway", Seed: 7, Replicas: 2, Duration: "30s", Medium: true},
		"jam":       {Scenario: "megahighway", Seed: 7, Replicas: 2, Duration: "30s", JamEvery: "10s", JamBurst: "1s"},
		"scenario":  {Scenario: "highway", Seed: 7, Replicas: 2, Duration: "30s"},
	}
	baseKey := mustKey(t, base)
	seen := map[string]string{"base": baseKey}
	for name, m := range mutations {
		key := mustKey(t, m)
		if key == baseKey {
			t.Errorf("mutating %s did not change the cache key", name)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("mutations %s and %s collided on one key", name, prev)
		}
		seen[key] = name
	}

	// Scenario-specific knobs on their own scenarios.
	if mustKey(t, JobSpec{Scenario: "highway", Mode: "fixed2"}) == mustKey(t, JobSpec{Scenario: "highway"}) {
		t.Error("highway mode did not change the key")
	}
	if mustKey(t, JobSpec{Scenario: "highway", FaultRate: 2}) == mustKey(t, JobSpec{Scenario: "highway"}) {
		t.Error("highway fault_rate did not change the key")
	}
	if mustKey(t, JobSpec{Scenario: "highway", Channels: 2, Medium: true}) == mustKey(t, JobSpec{Scenario: "highway", Medium: true}) {
		t.Error("channels did not change the key on a medium world")
	}
	if mustKey(t, JobSpec{Scenario: "intersection", FailAt: "60s"}) == mustKey(t, JobSpec{Scenario: "intersection"}) {
		t.Error("intersection fail_at did not change the key")
	}
	if mustKey(t, JobSpec{Scenario: "intersection", NoBackup: true}) == mustKey(t, JobSpec{Scenario: "intersection"}) {
		t.Error("intersection no_backup did not change the key")
	}
	if mustKey(t, JobSpec{Scenario: "encounter", Geometry: "level-change"}) == mustKey(t, JobSpec{Scenario: "encounter"}) {
		t.Error("encounter geometry did not change the key")
	}
	if mustKey(t, JobSpec{Scenario: "encounter", Voice: true}) == mustKey(t, JobSpec{Scenario: "encounter"}) {
		t.Error("encounter voice did not change the key")
	}
	if mustKey(t, JobSpec{Scenario: "E12", Short: true}) == mustKey(t, JobSpec{Scenario: "E12"}) {
		t.Error("experiment short did not change the key")
	}
	if mustKey(t, JobSpec{Scenario: "E12", Medium: true}) == mustKey(t, JobSpec{Scenario: "E12"}) {
		t.Error("experiment medium did not change the key")
	}
}

// TestCacheKeyIrrelevantKnobsDoNotSplit: a knob that cannot influence the
// chosen scenario's output must be normalized away, or equivalent runs
// would needlessly miss.
func TestCacheKeyIrrelevantKnobsDoNotSplit(t *testing.T) {
	if mustKey(t, JobSpec{Scenario: "encounter", Shards: 8}) != mustKey(t, JobSpec{Scenario: "encounter"}) {
		t.Error("shards split the key of the single-kernel encounter scenario")
	}
	if mustKey(t, JobSpec{Scenario: "highway", Geometry: "level-change"}) != mustKey(t, JobSpec{Scenario: "highway"}) {
		t.Error("encounter-only geometry split a highway key")
	}
	// Jam knobs only act as a pair.
	if mustKey(t, JobSpec{Scenario: "highway", JamEvery: "10s"}) != mustKey(t, JobSpec{Scenario: "highway"}) {
		t.Error("jam_every without jam_burst split the key")
	}
}

// TestCacheKeyTimeoutExcluded: the execution deadline does not change
// what is simulated and must not split the cache.
func TestCacheKeyTimeoutExcluded(t *testing.T) {
	if mustKey(t, JobSpec{Scenario: "highway", Timeout: "5s"}) != mustKey(t, JobSpec{Scenario: "highway"}) {
		t.Fatal("timeout is part of the cache key")
	}
}

// TestCacheKeyBuildSensitivity: a different build fingerprint must roll
// every key — an old binary's archives can never answer for a new one.
func TestCacheKeyBuildSensitivity(t *testing.T) {
	spec := JobSpec{Scenario: "highway"}
	a, err := spec.CacheKey("build-a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.CacheKey("build-b")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("build fingerprint does not affect the cache key")
	}
}

func TestNormalizeRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct {
		spec JobSpec
		want string // substring of the error; empty = any error
	}{
		{JobSpec{Scenario: ""}, ""},
		{JobSpec{Scenario: "warp-drive"}, ""},
		{JobSpec{Scenario: "highway", Mode: "bogus"}, ""},
		{JobSpec{Scenario: "highway", Duration: "soon"}, ""},
		{JobSpec{Scenario: "highway", Duration: "-5s"}, ""},
		{JobSpec{Scenario: "encounter", Geometry: "spiral"}, ""},
		{JobSpec{Scenario: "megahighway", Loss: ptr(1.5)}, ""},
		{JobSpec{Scenario: "highway", Timeout: "whenever"}, ""},
		// Non-finite and negative knobs: NaN passes every range
		// comparison, so each one is named.
		{JobSpec{Scenario: "megahighway", Loss: ptr(math.NaN())}, "bad loss NaN: want [0,1]"},
		{JobSpec{Scenario: "megahighway", Length: math.NaN()}, "bad length NaN"},
		{JobSpec{Scenario: "megahighway", Length: math.Inf(1)}, "bad length +Inf"},
		{JobSpec{Scenario: "megahighway", V2VRange: math.NaN()}, "bad v2v_range NaN"},
		{JobSpec{Scenario: "megahighway", V2VRange: math.Inf(-1)}, "bad v2v_range -Inf"},
		{JobSpec{Scenario: "highway", FaultRate: -1}, "bad fault_rate -1"},
		{JobSpec{Scenario: "highway", FaultRate: math.NaN()}, "bad fault_rate NaN"},
		{JobSpec{Scenario: "highway", FaultRate: math.Inf(1)}, "bad fault_rate +Inf"},
		// Counts that size allocations at submit or run time are capped,
		// or CacheKey's seed matrix panics or allocates without bound.
		{JobSpec{Scenario: "highway", Replicas: 1 << 62}, "bad replicas"},
		{JobSpec{Scenario: "E12", Replicas: maxReplicas + 1}, "bad replicas"},
		{JobSpec{Scenario: "megahighway", Length: 1e12, Shards: maxShards + 1}, "bad shards"},
		{JobSpec{Scenario: "E2", Shards: 1 << 40}, "bad shards"},
	} {
		_, err := tc.spec.Normalize()
		if err == nil {
			t.Errorf("Normalize(%+v) accepted a bad spec", tc.spec)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Normalize(%+v) = %v, want %q", tc.spec, err, tc.want)
		}
		if _, err := tc.spec.CacheKey(testBuild); err == nil {
			t.Errorf("CacheKey(%+v) keyed a bad spec", tc.spec)
		}
	}
}

// TestCacheKeyGolden pins job IDs under a fixed build string. A job ID
// names an archived result stream, so a refactor of the spec must leave
// every key as it was; a deliberate change bumps specVersion instead.
func TestCacheKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		spec JobSpec
		key  string
	}{
		{JobSpec{Scenario: "highway"}, "7991474902dc532a4d5ebd5643da574ffcd10737c10f271d1c1696d009e5b4bb"},
		{JobSpec{Scenario: "megahighway"}, "7155d9fac62b9f0dcf352a14fff3657e4a8f328370713f9d6e3872136aa1bd2e"},
		{JobSpec{Scenario: "intersection"}, "e28606b85d752bc8d84cb9755d8af6c82a284f9f86527c441dffc845e9a428a1"},
		{JobSpec{Scenario: "encounter"}, "73481daa7c82845f8ab5ecef42125f73e11f45b992ae2ad5744b57e830210d09"},
		{JobSpec{Scenario: "E12", Short: true}, "d31b198e46fc4cd0387e818c562fece7cdf23cd1a474d30a963cf120afff48f3"},
		{JobSpec{Scenario: "megahighway", Loss: ptr(0.0)}, "b134a842479c6790d11c5e32610eda5788bc065c2214fe50947814a744f51c3f"},
		{JobSpec{Scenario: "megahighway", Seed: 4, Duration: "2s", Cars: 60, Length: 3000,
			Medium: true, Channels: 2, JamEvery: "1s", JamBurst: "300ms"}, "fe0cd8b94b0673a937959c9f034e8b24588ee27be81f2b0de3c467520f8b50e1"},
	} {
		key, err := tc.spec.CacheKey("golden-build")
		if err != nil {
			t.Fatalf("CacheKey(%+v): %v", tc.spec, err)
		}
		if key != tc.key {
			t.Errorf("CacheKey(%+v) = %s, want %s", tc.spec, key, tc.key)
		}
	}
}

func TestNormalizeAppliesScenarioDefaults(t *testing.T) {
	n, err := JobSpec{Scenario: "megahighway"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Seed != 1 || n.Replicas != 1 || n.Shards != 1 || n.Cars != 200 ||
		n.Length != 10000 || n.V2VRange != 300 || n.Loss == nil || *n.Loss != 0.05 ||
		n.Duration != "2m0s" || n.Channels != 1 {
		t.Fatalf("unexpected normalized megahighway: %+v", n)
	}
	// The normalized spec must be a fixed point: normalizing it again
	// changes nothing (it is what the daemon stores and hashes).
	again, err := n.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := mustKey(t, n), mustKey(t, again)
	if ka != kb {
		t.Fatal("Normalize is not idempotent")
	}
}

func TestBuildFingerprintStableAndShaped(t *testing.T) {
	a, b := BuildFingerprint(), BuildFingerprint()
	if a != b {
		t.Fatalf("fingerprint not stable: %q vs %q", a, b)
	}
	if !strings.HasPrefix(a, "exe-") && !strings.HasPrefix(a, "mod-") {
		t.Fatalf("unexpected fingerprint shape %q", a)
	}
}

func ptr[T any](v T) *T { return &v }
