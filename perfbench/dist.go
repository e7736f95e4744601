package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sliceline"
	"sliceline/internal/dist"
	"sliceline/internal/matrix"
	"sliceline/internal/obs"
)

// fleet is a set of dist workers served in this process over loopback TCP.
// Each worker's listener counts the bytes that cross it, and each worker
// records the sl_worker_* metrics into its own registry.
type fleet struct {
	servers []*dist.Server
	lis     []*countingListener
	regs    []*obs.Registry
	wg      sync.WaitGroup
}

func startFleet(n int) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("worker listen: %w", err)
		}
		cl := &countingListener{Listener: l}
		reg := obs.NewRegistry()
		srv, err := dist.NewServerOpts(cl, dist.ServerOptions{Metrics: reg})
		if err != nil {
			l.Close()
			f.stop()
			return nil, err
		}
		f.servers, f.lis, f.regs = append(f.servers, srv), append(f.lis, cl), append(f.regs, reg)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = srv.Serve() // returns nil once stop closes the listener
		}()
	}
	return f, nil
}

// stop closes every worker and waits for their accept loops to end.
func (f *fleet) stop() {
	for _, s := range f.servers {
		s.Stop()
	}
	f.wg.Wait()
}

// cluster dials every worker and returns a cluster configured like the
// sliceline CLI's defaults. reg, when non-nil, receives the sl_dist_* metrics.
func (f *fleet) cluster(reg *obs.Registry) (*dist.Cluster, error) {
	workers := make([]dist.Worker, 0, len(f.lis))
	for _, l := range f.lis {
		w, err := dist.Dial(l.Addr().String())
		if err != nil {
			for _, w := range workers {
				w.Close()
			}
			return nil, err
		}
		workers = append(workers, w)
	}
	return dist.NewClusterOpts(workers, dist.Options{
		CallTimeout:       dist.DefaultCallTimeout,
		HedgeMultiplier:   dist.DefaultHedgeMultiplier,
		HeartbeatInterval: dist.DefaultHeartbeatInterval,
		Metrics:           reg,
	})
}

// workerEvalSeconds is each worker's accumulated Eval RPC time.
func (f *fleet) workerEvalSeconds() []float64 {
	out := make([]float64, len(f.regs))
	for i, r := range f.regs {
		out[i] = r.Histogram("sl_worker_eval_seconds", "", nil).Sum()
	}
	return out
}

// bytes is the traffic into the workers (requests) and out of them (replies).
func (f *fleet) bytes() (toWorkers, fromWorkers int64) {
	for _, l := range f.lis {
		toWorkers += l.read.Load()
		fromWorkers += l.written.Load()
	}
	return toWorkers, fromWorkers
}

// distProbe observes one traced run through the fleet.
type distProbe struct {
	f            *fleet
	cluster      *dist.Cluster
	reg          *obs.Registry
	eval         *timedEvaluator
	outAt, inAt  int64
	workerEvalAt []float64
}

func (f *fleet) probe() (*distProbe, error) {
	reg := obs.NewRegistry()
	c, err := f.cluster(reg)
	if err != nil {
		return nil, err
	}
	p := &distProbe{f: f, cluster: c, reg: reg, eval: &timedEvaluator{inner: c}}
	p.outAt, p.inAt = f.bytes()
	p.workerEvalAt = f.workerEvalSeconds()
	return p, nil
}

func (p *distProbe) close() { p.cluster.Close() }

func (p *distProbe) metrics(m map[string]float64) {
	out, in := p.f.bytes()
	m["dist.setup_s"] = p.eval.setup.Seconds()
	m["dist.eval_s"] = p.eval.eval.Seconds()
	m["dist.calls"] = float64(p.eval.calls)
	m["dist.bytes_out_mb"] = float64(out-p.outAt) / 1e6
	m["dist.bytes_in_mb"] = float64(in-p.inAt) / 1e6
	slowest, total := 0.0, 0.0
	for i, s := range p.f.workerEvalSeconds() {
		d := s - p.workerEvalAt[i]
		total += d
		if d > slowest {
			slowest = d
		}
	}
	m["dist.worker_eval_s"] = total
	m["dist.hedges"] = float64(p.reg.Counter("sl_dist_hedges_total", "").Value())
	m["dist.overhead_s"] = p.eval.eval.Seconds() - slowest
}

// timedEvaluator wraps an evaluator and times its calls. The enumeration
// calls Setup and Eval from one goroutine, one at a time.
type timedEvaluator struct {
	inner       sliceline.ExternalEvaluator
	setup, eval time.Duration
	calls       int
}

func (t *timedEvaluator) Setup(ctx context.Context, x *matrix.CSR, e []float64) error {
	t0 := time.Now()
	err := t.inner.Setup(ctx, x, e)
	t.setup += time.Since(t0)
	return err
}

func (t *timedEvaluator) Eval(ctx context.Context, cols [][]int, level int) (ss, se, sm []float64, err error) {
	t0 := time.Now()
	ss, se, sm, err = t.inner.Eval(ctx, cols, level)
	t.eval += time.Since(t0)
	t.calls++
	return ss, se, sm, err
}

// countingListener counts the bytes read from and written to its accepted
// connections.
type countingListener struct {
	net.Listener
	read, written atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.written.Add(int64(n))
	return n, err
}
