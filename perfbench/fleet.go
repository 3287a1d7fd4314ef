package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/pkg/client"
)

const (
	modelName   = "demo"
	fleetSize   = 3 // serve replicas behind the router
	replication = 2 // owner-set size K for keyed jobs
)

// fleet is the system under test, booted inside the benchmark process:
// three durable serve replicas, each with its own data directory and the
// demo model registered, behind a consistent-hash router with owner-set
// replication K=2 on a loopback listener.
type fleet struct {
	demo   *serve.DemoModel
	reps   []*serve.InProc
	router *shard.Router
	served chan error // the router's serve loop result
	hc     *http.Client
	c      *client.Client // through the router, retries off
}

// bootFleet starts a fleet whose replicas keep their data under dir.
func bootFleet(ctx context.Context, dir string) (f *fleet, err error) {
	f = &fleet{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxClients,
		MaxIdleConnsPerHost: maxClients,
	}}}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.demo, err = serve.TrainDemo(ctx); err != nil {
		return nil, fmt.Errorf("train demo model: %w", err)
	}
	urls := make([]string, fleetSize)
	for i := range urls {
		p, err := serve.StartInProc(serve.Config{DataDir: filepath.Join(dir, fmt.Sprintf("replica%d", i))})
		if err != nil {
			return nil, fmt.Errorf("start replica %d: %w", i, err)
		}
		f.reps = append(f.reps, p)
		if err := f.demo.Register(p.Server, modelName, 2); err != nil {
			return nil, fmt.Errorf("register model on replica %d: %w", i, err)
		}
		urls[i] = p.URL
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if f.router, err = shard.NewRouter(shard.Config{URLs: urls, Replication: replication}); err != nil {
		l.Close()
		return nil, fmt.Errorf("start router: %w", err)
	}
	f.router.Start()
	f.served = make(chan error, 1)
	go func() { f.served <- f.router.Serve(l) }()
	f.c = client.New("http://"+l.Addr().String(), client.WithRetry(0, 0), client.WithHTTPClient(f.hc))
	return f, nil
}

// close stops the router, then drains every replica.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if f.router != nil {
		errs = append(errs, f.router.Shutdown(ctx))
		if f.served != nil {
			errs = append(errs, <-f.served)
		}
	}
	for _, p := range f.reps {
		errs = append(errs, p.Close(ctx))
	}
	f.hc.CloseIdleConnections()
	return errors.Join(errs...)
}

// owner returns the replica the router sends key to first.
func (f *fleet) owner(key string) *serve.InProc {
	seq := f.router.ReplicaSet().Sequence(key, 1)
	for _, p := range f.reps {
		if len(seq) == 1 && p.URL == seq[0].URL {
			return p
		}
	}
	return nil
}

// direct returns a client that bypasses the router and talks to key's
// owning replica.
func (f *fleet) direct(key string) *client.Client {
	return client.New(f.owner(key).URL, client.WithRetry(0, 0), client.WithHTTPClient(f.hc))
}

// jobEntries counts the job entries every replica holds, in any state.
func (f *fleet) jobEntries() int {
	n := 0
	for _, p := range f.reps {
		for _, c := range p.Server.Jobs().Stats() {
			n += c
		}
	}
	return n
}

// lruStats sums the dataset caches' hit and miss counters.
func (f *fleet) lruStats() (hits, misses int64) {
	for _, p := range f.reps {
		h, m, _ := p.Server.Cache().Stats()
		hits += h
		misses += m
	}
	return hits, misses
}
