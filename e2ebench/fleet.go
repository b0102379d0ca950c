package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// fleet is one set-up of the system under test: serve.Servers, and for the
// HTTP workloads each behind an api mux on loopback with a cluster.Router
// in front. Close tears all of it down and waits for it.
type fleet struct {
	w       *world
	servers []*serve.Server
	// ids names the shards (HTTP workloads only), index-aligned with
	// servers.
	ids       []string
	router    *cluster.Router
	routerURL string
	client    *http.Client
	snapDir   string

	https []*http.Server
	wg    sync.WaitGroup
}

// newServers builds one in-process server per options entry around w.
func newServers(w *world, opts ...serve.Options) (*fleet, error) {
	f := &fleet{w: w}
	for _, o := range opts {
		s, err := serve.NewServer(w.build, w.base, w.ds, o)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.servers = append(f.servers, s)
	}
	return f, nil
}

// newCluster builds n shards with opts behind a router, all on loopback
// HTTP. A non-nil tracer wraps the router and shard handlers. With
// snapshots set, the shards share a snapshot directory in a fresh
// temporary directory that Close removes.
func newCluster(w *world, n int, opts serve.Options, snapshots bool, tr *tracer) (*fleet, error) {
	f := &fleet{w: w, client: newClient()}
	if snapshots {
		dir, err := os.MkdirTemp("", "e2ebench-snap-")
		if err != nil {
			return nil, fmt.Errorf("snapshot dir: %w", err)
		}
		f.snapDir = dir
		opts.SnapshotDir = dir
	}
	f.router = cluster.NewRouter(cluster.Options{})
	for i := 0; i < n; i++ {
		s, err := serve.NewServer(w.build, w.base, w.ds, opts)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.servers = append(f.servers, s)
		id := "s" + strconv.Itoa(i)
		addr, err := f.listen(tr.wrap("shard", api.NewMux(s, w.ds, api.Config{ShardID: id})))
		if err != nil {
			f.Close()
			return nil, err
		}
		f.ids = append(f.ids, id)
		f.router.AddShard(id, addr)
	}
	f.router.Start()
	addr, err := f.listen(tr.wrap("router", f.router.Mux()))
	if err != nil {
		f.Close()
		return nil, err
	}
	f.routerURL = "http://" + addr
	return f, nil
}

// newClient is the load generator's HTTP client: keep-alive connections
// enough for every caller, no proxy.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns: 64, MaxIdleConnsPerHost: 64, IdleConnTimeout: time.Minute,
	}}
}

// listen serves h on a fresh loopback port.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.https = append(f.https, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return ln.Addr().String(), nil
}

// owner returns the server that holds a tenant: its ring owner in a
// cluster, servers[0] otherwise.
func (f *fleet) owner(key string) (*serve.Server, error) {
	if f.router == nil {
		return f.servers[0], nil
	}
	id, ok := f.router.LookupShard(key)
	if !ok {
		return nil, fmt.Errorf("no shard owns {%s}", key)
	}
	for i, sid := range f.ids {
		if sid == id {
			return f.servers[i], nil
		}
	}
	return nil, fmt.Errorf("unknown shard %q", id)
}

// stats snapshots every server's counters.
func (f *fleet) stats() []serve.Stats {
	out := make([]serve.Stats, len(f.servers))
	for i, s := range f.servers {
		out[i] = s.Stats()
	}
	return out
}

// Close stops the router, the listeners and the servers, waits for the
// serving goroutines, and removes the snapshot directory.
func (f *fleet) Close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, h := range f.https {
		h.Close()
	}
	f.wg.Wait()
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	for _, s := range f.servers {
		s.Close()
	}
	if f.snapDir != "" {
		os.RemoveAll(f.snapDir)
	}
}

// post sends one JSON request through the router and returns the body of
// a 200 answer. While tr records, the call is a "client"+path span whose id
// the router span shares.
func (f *fleet) post(tr *tracer, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, f.routerURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var id uint64
	traced := tr.recording()
	if traced {
		id = tr.newID()
		req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if traced {
		tr.record("client"+path, id, start, time.Now())
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}
