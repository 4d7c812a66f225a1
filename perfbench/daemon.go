package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// daemon is one in-process dacd at its default deployment settings (one
// job worker, hot serving path on, no fleet, metrics registry on) behind
// a loopback listener, and the client the benchmark drives it with.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	url    string
	dir    string
	client *http.Client
}

// startDaemon opens a fresh data directory under dir and serves it.
func startDaemon(dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := serve.NewServerOpts(dir, serve.ServerOptions{Workers: 1, Obs: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		dir:    dir,
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 256},
		},
	}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// close stops the listener, the job workers and the client, waits for the
// serving goroutine, and removes the data directory.
func (d *daemon) close() {
	d.hs.Close()
	<-d.served
	d.srv.Close()
	d.client.CloseIdleConnections()
	os.RemoveAll(d.dir)
}

// call sends a JSON request and decodes a JSON reply; non-2xx is an error.
func (d *daemon) call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.url+path, body)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// submit posts a job; a deduplicated submission is an error, because the
// benchmark submits only distinct specs and a folded job would time ~0.
func (d *daemon) submit(ctx context.Context, spec serve.JobSpec) (int64, error) {
	var resp struct {
		ID      int64 `json:"id"`
		Deduped bool  `json:"deduped"`
	}
	if err := d.call(ctx, "POST", "/jobs", spec, &resp); err != nil {
		return 0, err
	}
	if resp.Deduped {
		return resp.ID, fmt.Errorf("job spec %+v was deduplicated into job %d", spec, resp.ID)
	}
	return resp.ID, nil
}

// jobPoll is the client-side polling interval: 5 ms against jobs of
// seconds, so the poll resolution stays far below job_s's bound.
const jobPoll = 5 * time.Millisecond

// wait polls a job until it reaches a final state. onPoll, when non-nil,
// sees every polled state with the time it was observed.
func (d *daemon) wait(ctx context.Context, id int64, onPoll func(j *serve.Job, at time.Time)) (*serve.Job, error) {
	for {
		var j serve.Job
		if err := d.call(ctx, "GET", fmt.Sprintf("/jobs/%d", id), nil, &j); err != nil {
			return nil, err
		}
		at := time.Now()
		if onPoll != nil {
			onPoll(&j, at)
		}
		switch j.State {
		case serve.StateDone:
			return &j, nil
		case serve.StateFailed, serve.StateCancelled:
			return &j, fmt.Errorf("job %d %s: %s", id, j.State, j.Error)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(jobPoll):
		}
	}
}

// tuneResult is the part of a tune job's result the benchmark checks.
type tuneResult struct {
	Vector       []float64 `json:"vector"`
	PredictedSec float64   `json:"predicted_sec"`
	ClusterHours float64   `json:"cluster_hours"`
	Model        string    `json:"model"`
}

// runJob submits a job and waits for it; it returns the decoded tune
// result, the job ID and the client-observed submit-to-done time.
func (d *daemon) runJob(ctx context.Context, spec serve.JobSpec, onPoll func(j *serve.Job, at time.Time)) (*tuneResult, int64, time.Duration, error) {
	start := time.Now()
	id, err := d.submit(ctx, spec)
	if err != nil {
		return nil, id, 0, err
	}
	j, err := d.wait(ctx, id, onPoll)
	elapsed := time.Since(start)
	if err != nil {
		return nil, id, elapsed, err
	}
	var res tuneResult
	if err := json.Unmarshal(j.Result, &res); err != nil {
		return nil, id, elapsed, fmt.Errorf("job %d result: %w", id, err)
	}
	return &res, id, elapsed, nil
}

// metrics reads the daemon's GET /metrics snapshot.
func (d *daemon) metrics(ctx context.Context) (obs.Snapshot, error) {
	var snap obs.Snapshot
	err := d.call(ctx, "GET", "/metrics", nil, &snap)
	return snap, err
}

// registryDir is where the daemon's model registry lives.
func (d *daemon) registryDir() string { return filepath.Join(d.dir, "models") }
