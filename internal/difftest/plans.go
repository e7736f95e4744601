package difftest

import (
	"context"
	"fmt"
	"net"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/dist"
	"sliceline/internal/faults"
)

// Plan is one named execution backend. Run executes the case's
// configuration through that backend and returns the result; backends that
// allocate external resources (TCP workers) clean them up before returning.
type Plan struct {
	Name string
	// Weighted reports whether the plan supports row-weighted cases;
	// external evaluators do not (core rejects the combination by design).
	Weighted bool
	run      func(c *Case) (*core.Result, error)
}

// Run executes the plan on the case.
func (p Plan) Run(c *Case) (*core.Result, error) { return p.run(c) }

// runBuiltin executes the in-process enumerator, honoring case weights.
func runBuiltin(c *Case, mutate func(*core.Config)) (*core.Result, error) {
	cfg := c.Cfg
	if mutate != nil {
		mutate(&cfg)
	}
	return core.Run(context.Background(), core.Input{DS: c.DS, E: c.E, W: c.W}, cfg)
}

// BuiltinPlans enumerates the single-process execution plans of Section 4.4:
// the fused sparse kernel at several block sizes — b=1 is the task-parallel
// plan, a huge b the data-parallel plan, intermediate values the hybrid —
// plus the dense chunked kernel, the packed-bitset kernel forced on and off,
// and priority-ordered enumeration.
func BuiltinPlans() []Plan {
	plans := []Plan{
		{Name: "builtin/auto", Weighted: true, run: func(c *Case) (*core.Result, error) {
			return runBuiltin(c, nil)
		}},
		{Name: "dense", Weighted: true, run: func(c *Case) (*core.Result, error) {
			return runBuiltin(c, func(cfg *core.Config) { cfg.DenseEval = true })
		}},
		{Name: "priority", Weighted: true, run: func(c *Case) (*core.Result, error) {
			return runBuiltin(c, func(cfg *core.Config) { cfg.PriorityEnumeration = true })
		}},
		{Name: "bitset/on", Weighted: true, run: func(c *Case) (*core.Result, error) {
			return runBuiltin(c, func(cfg *core.Config) { cfg.BitsetEval = core.BitsetOn })
		}},
		{Name: "bitset/off", Weighted: true, run: func(c *Case) (*core.Result, error) {
			return runBuiltin(c, func(cfg *core.Config) { cfg.BitsetEval = core.BitsetOff })
		}},
	}
	for _, b := range []int{1, 3, 16, 1 << 30} {
		b := b
		name := fmt.Sprintf("blocked/b=%d", b)
		if b == 1<<30 {
			name = "blocked/b=nrow"
		}
		plans = append(plans, Plan{Name: name, Weighted: true, run: func(c *Case) (*core.Result, error) {
			return runBuiltin(c, func(cfg *core.Config) { cfg.BlockSize = b })
		}})
	}
	return plans
}

// LocalPlans enumerates the multi-threaded local evaluators of Figure 7(b)
// — MT-Ops (barrier per operation) and MT-PFor (parallel-for over blocks) —
// each under every kernel mode (auto/bitset/CSR).
func LocalPlans() []Plan {
	var plans []Plan
	for _, s := range []dist.Strategy{dist.MTOps, dist.MTPFor} {
		for _, mode := range []core.BitsetMode{core.BitsetAuto, core.BitsetOn, core.BitsetOff} {
			s, mode := s, mode
			name := "local/" + s.String()
			if mode != core.BitsetAuto {
				name += "-bitset-" + mode.String()
			}
			plans = append(plans, Plan{Name: name, run: func(c *Case) (*core.Result, error) {
				ev, err := dist.NewLocalMode(s, 8, mode)
				if err != nil {
					return nil, err
				}
				cfg := c.Cfg
				cfg.Evaluator = ev
				return core.Run(context.Background(), core.Input{DS: c.DS, E: c.E}, cfg)
			}})
		}
	}
	return plans
}

// ClusterPlans enumerates Dist-PFor over in-process workers, one plan per
// requested worker count.
func ClusterPlans(workerCounts ...int) []Plan {
	var plans []Plan
	for _, nw := range workerCounts {
		nw := nw
		plans = append(plans, Plan{Name: fmt.Sprintf("cluster/inproc-%d", nw), run: func(c *Case) (*core.Result, error) {
			workers := make([]dist.Worker, nw)
			for i := range workers {
				workers[i] = &dist.InProcessWorker{}
			}
			cl, err := dist.NewCluster(workers, 0)
			if err != nil {
				return nil, err
			}
			cfg := c.Cfg
			cfg.Evaluator = cl
			return core.Run(context.Background(), core.Input{DS: c.DS, E: c.E}, cfg)
		}})
	}
	return plans
}

// BitsetClusterPlans enumerates Dist-PFor over in-process workers whose
// worker-side kernel knob forces the packed-bitset kernel — the partitioned
// analogue of the bitset/on builtin plan.
func BitsetClusterPlans(workerCounts ...int) []Plan {
	var plans []Plan
	for _, nw := range workerCounts {
		nw := nw
		plans = append(plans, Plan{Name: fmt.Sprintf("cluster/inproc-%d-bitset", nw), run: func(c *Case) (*core.Result, error) {
			workers := make([]dist.Worker, nw)
			for i := range workers {
				workers[i] = &dist.InProcessWorker{BitsetEval: core.BitsetOn}
			}
			cl, err := dist.NewCluster(workers, 0)
			if err != nil {
				return nil, err
			}
			cfg := c.Cfg
			cfg.Evaluator = cl
			return core.Run(context.Background(), core.Input{DS: c.DS, E: c.E}, cfg)
		}})
	}
	return plans
}

// TCPPlans enumerates Dist-PFor over real TCP workers served on ephemeral
// localhost ports, exercising the full gob-RPC serialization path. Workers
// are spun up and torn down per Run.
func TCPPlans(workerCounts ...int) []Plan {
	return TCPPlansMode(core.BitsetAuto, workerCounts...)
}

// TCPPlansMode is TCPPlans with an explicit worker-side kernel mode, the
// path cmd/slworker's -bitset flag configures in production.
func TCPPlansMode(mode core.BitsetMode, workerCounts ...int) []Plan {
	var plans []Plan
	for _, nw := range workerCounts {
		nw := nw
		name := fmt.Sprintf("cluster/tcp-%d", nw)
		if mode != core.BitsetAuto {
			name += "-bitset-" + mode.String()
		}
		plans = append(plans, Plan{Name: name, run: func(c *Case) (*core.Result, error) {
			listeners := make([]net.Listener, 0, nw)
			defer func() {
				for _, lis := range listeners {
					lis.Close()
				}
			}()
			workers := make([]dist.Worker, 0, nw)
			for i := 0; i < nw; i++ {
				lis, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					return nil, err
				}
				listeners = append(listeners, lis)
				srv, err := dist.NewServerOpts(lis, dist.ServerOptions{BitsetEval: mode})
				if err != nil {
					return nil, err
				}
				go srv.Serve() //nolint:errcheck // lifetime bound to listener
				w, err := dist.Dial(lis.Addr().String())
				if err != nil {
					return nil, err
				}
				workers = append(workers, w)
			}
			cl, err := dist.NewCluster(workers, 0)
			if err != nil {
				return nil, err
			}
			defer cl.Close()
			cfg := c.Cfg
			cfg.Evaluator = cl
			return core.Run(context.Background(), core.Input{DS: c.DS, E: c.E}, cfg)
		}})
	}
	return plans
}

// ChaosPlans enumerates Dist-PFor clusters with seeded fault injection: one
// clean worker plus faulty workers running the faults.Chaos profile, with
// deadlines, hedging and heartbeats enabled. Differentially comparing them
// against the fault-free plans asserts the self-healing runtime's core
// guarantee — faults change performance, never results. The fault pattern is
// a pure function of the plan's seed, so a differential failure reproduces
// from the case seed and plan name alone.
func ChaosPlans(seeds ...int64) []Plan {
	var plans []Plan
	for _, seed := range seeds {
		seed := seed
		plans = append(plans, Plan{Name: fmt.Sprintf("cluster/chaos-%d", seed), run: func(c *Case) (*core.Result, error) {
			workers := []dist.Worker{
				&dist.InProcessWorker{}, // always one clean exit
				faults.Wrap(&dist.InProcessWorker{}, faults.Seeded(seed, faults.Chaos)),
				faults.Wrap(&dist.InProcessWorker{}, faults.Seeded(seed+1000, faults.Chaos)),
			}
			cl, err := dist.NewClusterOpts(workers, dist.Options{
				CallTimeout:       500 * time.Millisecond,
				HedgeDelay:        50 * time.Millisecond,
				HeartbeatInterval: 25 * time.Millisecond,
				HeartbeatTimeout:  100 * time.Millisecond,
			})
			if err != nil {
				return nil, err
			}
			defer cl.Close()
			cfg := c.Cfg
			cfg.Evaluator = cl
			return core.Run(context.Background(), core.Input{DS: c.DS, E: c.E}, cfg)
		}})
	}
	return plans
}

// ReferencePlan runs the literal materialized linear-algebra program of the
// paper (RunReference), the executable specification. It ignores weights
// and is only intended for small cases.
func ReferencePlan() Plan {
	return Plan{Name: "reference", run: func(c *Case) (*core.Result, error) {
		return core.RunReference(c.DS, c.E, c.Cfg)
	}}
}

// AllPlans is the full cross-backend matrix used by the main differential
// test: builtin variants (including the bitset kernel forced on and off),
// local evaluators under every kernel mode, and in-process clusters both
// with auto and forced-bitset workers. TCP plans are listed separately
// because of their per-run setup cost.
func AllPlans() []Plan {
	plans := BuiltinPlans()
	plans = append(plans, LocalPlans()...)
	plans = append(plans, ClusterPlans(1, 2, 4)...)
	plans = append(plans, BitsetClusterPlans(2)...)
	return plans
}
