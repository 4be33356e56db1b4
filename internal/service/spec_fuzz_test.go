package service

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJobSpec feeds hostile JSON job specs to the submit path's pure
// half. Normalize and CacheKey must never panic, CacheKey must refuse
// exactly the specs Normalize refuses, Normalize must be idempotent, and
// a spec must key the same as its normal form.
func FuzzJobSpec(f *testing.F) {
	for _, raw := range megahighwaySpellings {
		f.Add([]byte(raw))
	}
	f.Add([]byte(`{"scenario":"highway","replicas":4611686018427387904}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var spec JobSpec
		if json.Unmarshal(raw, &spec) != nil {
			return
		}
		n, err := spec.Normalize()
		key, kerr := spec.CacheKey(testBuild)
		if (err == nil) != (kerr == nil) {
			t.Fatalf("Normalize err %v but CacheKey err %v for %s", err, kerr, raw)
		}
		if err != nil {
			return
		}
		again, err := n.Normalize()
		if err != nil {
			t.Fatalf("Normalize refused its own output %+v: %v", n, err)
		}
		if !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalize is not idempotent:\n%+v\n%+v", n, again)
		}
		if nk := mustKey(t, n); nk != key {
			t.Fatalf("CacheKey(%s) = %s, but its normal form keys %s", raw, key, nk)
		}
	})
}
