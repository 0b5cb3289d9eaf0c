package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"schemaevo/internal/server"
	"schemaevo/internal/telemetry"
)

// clients is the closed loop's width: one client goroutine per core of
// the 2-core reference host, each on its own keep-alive connection.
const clients = 2

// service is one server.New instance behind a loopback HTTP listener.
type service struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan error
}

// startService opens the server on a store directory with the default
// cache settings of server.Config and serves it on 127.0.0.1.
func startService(dir string) (*service, error) {
	srv, err := server.New(context.Background(), server.Config{StoreDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	sv := &service{srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { sv.served <- sv.hs.Serve(ln) }()
	return sv, nil
}

// close stops the listener, waits for the serve loop and closes the store.
func (sv *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := sv.hs.Shutdown(ctx)
	<-sv.served
	if cerr := sv.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// client is one closed-loop caller: a single keep-alive connection, one
// attempt per call (no retries), and a reused response buffer.
type client struct {
	hc   *http.Client
	base string
	// dials counts connections opened. A client that dialled more than
	// once lost its keep-alive connection mid-run; the caller counts that
	// as a failure.
	dials atomic.Int64
	buf   bytes.Buffer
}

func newClient(base string) *client {
	c := &client{base: base}
	d := &net.Dialer{}
	c.hc = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	return c
}

// do sends one request and reads the whole reply. The returned body is
// valid until the next call.
func (c *client) do(method, path string, body []byte, ifNoneMatch string) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	return resp, c.buf.Bytes(), nil
}

// close drops the client's connection.
func (c *client) close() {
	c.hc.CloseIdleConnections()
}

// metricsSnapshot reads the server's telemetry report from /metrics.
func (c *client) metricsSnapshot() (*telemetry.Report, error) {
	resp, body, err := c.do("GET", "/metrics", nil, "")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return &rep, nil
}

// sampled runs drive between two /metrics snapshots, taken on a
// connection of their own.
func sampled(base string, drive func()) (before, after *telemetry.Report, err error) {
	mon := newClient(base)
	defer mon.close()
	if before, err = mon.metricsSnapshot(); err != nil {
		return nil, nil, err
	}
	drive()
	after, err = mon.metricsSnapshot()
	return before, after, err
}

// newLogs makes one op log per client for a run of ops operations.
func newLogs(ops int) [clients]*opLog {
	var logs [clients]*opLog
	for i := range logs {
		logs[i] = newOpLog(ops / clients)
	}
	return logs
}

// stage returns a stage's report by name (zero when absent).
func stage(r *telemetry.Report, name string) telemetry.StageReport {
	for _, s := range r.Stages {
		if s.Name == name {
			return s
		}
	}
	return telemetry.StageReport{}
}

// busyPerJob is a stage's mean busy time per job between two snapshots,
// in microseconds.
func busyPerJob(before, after *telemetry.Report, name string) float64 {
	b, a := stage(before, name), stage(after, name)
	if a.Jobs == b.Jobs {
		return 0
	}
	return float64(a.BusyUS-b.BusyUS) / float64(a.Jobs-b.Jobs)
}

// etagOf is the server's strong ETag for a body: the quoted FNV-1a-64 of
// its bytes, in hex.
func etagOf(body []byte) string {
	h := uint64(14695981039346656037)
	for _, b := range body {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return fmt.Sprintf("\"%016x\"", h)
}
