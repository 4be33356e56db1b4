package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// An oversized submit body is refused with a 413 in the one error
// envelope, before it is read whole, and the daemon keeps serving.
func TestSubmitBodyTooLarge(t *testing.T) {
	s := newTestServer(t, Config{})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	post := func(body []byte) (*http.Response, apiError) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp, e
	}

	huge := []byte(`{"scenario":"` + strings.Repeat("x", 2<<20) + `"}`)
	resp, e := post(huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body: status %d, want 413", resp.StatusCode)
	}
	if resp.Header.Get("Content-Type") != "application/json" || e.Error == "" {
		t.Fatalf("413 not in the error envelope: %q %+v", resp.Header.Get("Content-Type"), e)
	}

	spec, err := json.Marshal(tinyHighway())
	if err != nil {
		t.Fatal(err)
	}
	if resp, e := post(spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after the 413: status %d (%s), want 202", resp.StatusCode, e.Error)
	}
}
