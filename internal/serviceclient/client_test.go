package serviceclient

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"karyon/internal/service"
)

func newTestDaemon(t *testing.T) (*service.Server, *Client) {
	t.Helper()
	srv, err := service.New(service.Config{
		CacheDir: t.TempDir(),
		Workers:  2,
		Build:    "client-test-build",
		Log:      io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, New(hs.URL)
}

func tinySpec() service.JobSpec {
	return service.JobSpec{Scenario: "highway", Seed: 11, Replicas: 2, Duration: "10s", Cars: 6}
}

func TestClientRunRoundTrip(t *testing.T) {
	_, c := newTestDaemon(t)
	ctx := context.Background()

	st, rep, err := c.Run(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached {
		t.Fatal("first run claims cached")
	}
	if rep == nil || rep.Summary == nil || len(rep.Summary.Records) == 0 {
		t.Fatalf("empty report: %+v", rep)
	}

	// Second run: same deterministic ID, answered from the cache, same report.
	st2, rep2, err := c.Run(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID {
		t.Fatalf("retry changed job ID: %s vs %s", st2.ID, st.ID)
	}
	if !st2.Cached {
		t.Fatal("second run not served from cache")
	}
	if len(rep2.Summary.Records) != len(rep.Summary.Records) {
		t.Fatalf("cached report differs: %d vs %d records", len(rep2.Summary.Records), len(rep.Summary.Records))
	}
}

func TestClientStreamLineShape(t *testing.T) {
	_, c := newTestDaemon(t)
	ctx := context.Background()
	st, err := c.Submit(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	var replicas, summaries int
	err = c.StreamResults(ctx, st.ID, func(line service.Line) error {
		switch line.Type {
		case service.LineReplica:
			if line.Index == nil || line.Seed == nil || line.Result == nil {
				t.Errorf("replica line missing fields: %+v", line)
			} else if *line.Index != replicas {
				t.Errorf("replica %d arrived out of order (want %d)", *line.Index, replicas)
			}
			replicas++
		case service.LineSummary:
			if line.Report == nil {
				t.Error("summary line missing report")
			}
			summaries++
		default:
			t.Errorf("unexpected line type %q", line.Type)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if replicas != 2 || summaries != 1 {
		t.Fatalf("stream had %d replicas, %d summaries", replicas, summaries)
	}
}

func TestClientRawResultsAreByteIdentical(t *testing.T) {
	_, c := newTestDaemon(t)
	ctx := context.Background()
	st, _, err := c.Run(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	read := func() string {
		body, err := c.Results(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer body.Close()
		b, err := io.ReadAll(body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := read(), read(); a != b || a == "" {
		t.Fatalf("result stream not byte-stable across reads (%d vs %d bytes)", len(a), len(b))
	}
}

func TestClientStatusAndStats(t *testing.T) {
	_, c := newTestDaemon(t)
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	st, _, err := c.Run(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != service.StateDone || got.ResultBytes == 0 {
		t.Fatalf("job status %+v", got)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Fatalf("jobs list %+v", jobs)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Submitted != 1 || stats.CacheMisses != 1 || stats.Completed != 1 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestClientAPIErrors(t *testing.T) {
	_, c := newTestDaemon(t)
	ctx := context.Background()

	_, err := c.Submit(ctx, service.JobSpec{Scenario: "warp-drive"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != 400 {
		t.Fatalf("bad spec error = %v", err)
	}

	if _, err := c.Job(ctx, "deadbeef"); !errors.As(err, &apiErr) || apiErr.Code != 404 {
		t.Fatalf("unknown job error = %v", err)
	}
	if _, err := c.Cancel(ctx, "deadbeef"); !errors.As(err, &apiErr) || apiErr.Code != 404 {
		t.Fatalf("unknown cancel error = %v", err)
	}
}

// A submission naming a field JobSpec does not have — here the removed
// "speculate" knob — is refused with a 400 that names the field, never
// silently run with the field ignored.
func TestClientUnknownFieldRefused(t *testing.T) {
	_, c := newTestDaemon(t)
	body := []byte(`{"scenario":"highway","duration":"10s","cars":6,"speculate":8}`)
	_, err := c.do(context.Background(), http.MethodPost, "/v1/jobs", body, false)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusBadRequest {
		t.Fatalf("unknown-field submit error = %v, want HTTP 400", err)
	}
	if !strings.Contains(apiErr.Msg, `"speculate"`) {
		t.Fatalf("400 message %q does not name the unknown field", apiErr.Msg)
	}
}

func TestClientCancel(t *testing.T) {
	srv, c := newTestDaemon(t)
	ctx := context.Background()
	// A big job we can cancel mid-flight.
	st, err := c.Submit(ctx, service.JobSpec{Scenario: "megahighway", Seed: 3, Replicas: 4, Duration: "2m", Cars: 400})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, err := c.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == service.StateCancelled {
			break
		}
		if got.State == service.StateDone || time.Now().After(deadline) {
			t.Fatalf("job state %s after cancel", got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = srv
}
