package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"bindlock"
	"bindlock/internal/codesign"
	"bindlock/internal/dfg"
	"bindlock/internal/mediabench"
	"bindlock/internal/sched"
	"bindlock/internal/sim"
	"bindlock/internal/trace"
)

// The paper's evaluation setup (Sec. VI): three FUs per class, the ten most
// frequent minterms as candidates, and the Fig. 4 grid of 1-3 locked FUs by
// 1-3 locked minterms per FU.
const (
	flowFUs        = 3
	flowCandidates = 10
	flowGridMax    = 3
)

// flowBench runs the paper's evaluation through the facade over all 11
// kernels and both FU classes; pass i characterises them under workload
// seed flowSeed(seed, i).
type flowBench struct {
	seed    int64
	kernels []bindlock.Benchmark
	// traced is the traced pass, for the counts its spans do not carry.
	traced *flowPass
}

func newFlowBench(seed int64, _ string) bench { return &flowBench{seed: seed} }

// setUp lists the kernels and checks that each compiles.
func (b *flowBench) setUp() error {
	b.kernels = bindlock.Benchmarks()
	for _, k := range b.kernels {
		if _, err := k.Compile(); err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
	}
	return nil
}

func (b *flowBench) tearDown() { b.kernels = nil }

// flowPass accumulates one pass.
type flowPass struct {
	passResult
	tr      *tracer
	samples int
	enum    int
}

// call times one facade call into the pass's flow time, inside a span
// named after the module it enters.
func (f *flowPass) call(name, op string, parent int, fn func() error) (time.Duration, error) {
	id := f.tr.begin(name, op, parent)
	t := time.Now()
	err := fn()
	d := time.Since(t)
	f.tr.end(id)
	f.work += d
	return d, err
}

func (b *flowBench) pass(i int, tr *tracer) (passResult, error) {
	ctx := context.Background()
	wseed := flowSeed(b.seed, i)
	f := &flowPass{tr: tr}
	for _, k := range b.kernels {
		op := fmt.Sprintf("%s/%d", k.Name, wseed)
		kid := tr.begin("flow.kernel", op, 0)
		// A kernel is one operation (prepare, baseline bindings, locked
		// simulation, RTL overhead); each of its grid points is another.
		f.attempted++
		if err := f.kernel(ctx, k, wseed, op, kid); err != nil {
			f.fail(err)
		}
		tr.end(kid)
	}
	f.record = map[string]float64{
		"flow_s":      f.work.Seconds(),
		"grid_points": float64(f.units),
		"enumerated":  float64(f.enum),
	}
	if tr != nil {
		b.traced = f
	}
	return f.passResult, nil
}

// kernel runs one kernel's flow: prepare, then per class the co-design
// grid, the baseline bindings and the locked simulation, then the RTL
// overhead of the co-designed and the area-aware bindings.
func (f *flowPass) kernel(ctx context.Context, k bindlock.Benchmark, wseed int64, op string, kid int) error {
	var d *bindlock.Design
	var err error
	if f.tr == nil {
		_, err = f.call("bindlock.PrepareBenchmark", op, kid, func() (e error) {
			d, e = bindlock.PrepareBenchmark(ctx, k.Name, bindlock.WithMaxFUs(flowFUs), bindlock.WithSeed(wseed))
			return e
		})
	} else {
		d, err = f.prepareTraced(ctx, k, wseed, op, kid)
	}
	if err != nil {
		return err
	}
	f.samples += d.Trace.Len()
	codesigned := map[bindlock.Class]*bindlock.Binding{}
	area := map[bindlock.Class]*bindlock.Binding{}
	for _, class := range []bindlock.Class{bindlock.ClassAdd, bindlock.ClassMul} {
		if len(d.G.OpsOfClass(class)) == 0 {
			continue
		}
		var cands []bindlock.Minterm
		f.call("sim.candidates", op, kid, func() error { cands = d.Candidates(class, flowCandidates); return nil })
		var strongest *bindlock.CoDesignResult
		for locked := 1; locked <= flowGridMax; locked++ {
			for per := 1; per <= flowGridMax && per <= len(cands); per++ {
				if res := f.point(ctx, d, class, locked, per, cands, op, kid); res != nil {
					strongest = res
				}
			}
		}
		if strongest == nil {
			continue
		}
		for _, name := range []string{"area", "power", "random"} {
			var bb *bindlock.Binding
			if _, err := f.call("binding.bind", op, kid, func() (e error) { bb, e = d.BindBaseline(class, name); return e }); err != nil {
				return err
			}
			if name == "area" {
				area[class] = bb
			}
		}
		var rep bindlock.CorruptionReport
		if _, err := f.call("lockedsim.run", op, kid, func() (e error) {
			rep, e = d.SimulateLocked(ctx, d.Trace, strongest.Binding, strongest.Cfg)
			return e
		}); err != nil {
			return err
		}
		// The locked simulation's clean-stream injections are Eqn. 2's
		// cost by construction: the two modules cross-check each other.
		if rep.CleanInjections != strongest.Errors {
			return fmt.Errorf("%s: locked simulation counts %d errors, co-design %d", op, rep.CleanInjections, strongest.Errors)
		}
		codesigned[class] = strongest.Binding
	}
	for _, bs := range []map[bindlock.Class]*bindlock.Binding{codesigned, area} {
		if _, err := f.call("rtl.measure", op, kid, func() error { _, e := d.Overhead(bs); return e }); err != nil {
			return err
		}
	}
	return nil
}

// point runs one grid point: the heuristic co-design and, where the
// enumeration fits the facade's default budget, the optimal one. Each grid
// point is one operation; it fails when a call errs, a result's error
// count disagrees with ApplicationErrors on its own binding, or the
// optimum scores below the heuristic. A failed point returns nil and the
// grid goes on, so every point is attempted.
func (f *flowPass) point(ctx context.Context, d *bindlock.Design, class bindlock.Class, locked, per int, cands []bindlock.Minterm, op string, kid int) *bindlock.CoDesignResult {
	f.attempted++
	f.units++
	var heu, opt *bindlock.CoDesignResult
	lat, err := f.call("codesign.heuristic", op, kid, func() (e error) {
		heu, e = d.CoDesign(ctx, class, locked, per, cands)
		return e
	})
	if err == nil {
		err = checkErrors(d, heu)
	}
	if err == nil && optimalFits(len(cands), per, locked) {
		var dt time.Duration
		dt, err = f.call("codesign.optimal", op, kid, func() (e error) {
			opt, e = d.CoDesignOptimal(ctx, class, locked, per, cands)
			return e
		})
		lat += dt
		if err == nil {
			err = checkErrors(d, opt)
		}
		if err == nil && opt.Errors < heu.Errors {
			err = fmt.Errorf("optimal co-design scores %d, heuristic %d", opt.Errors, heu.Errors)
		}
		if err == nil {
			f.enum += opt.Enumerated
		}
	}
	f.lat = append(f.lat, lat)
	if err != nil {
		f.fail(fmt.Errorf("%s %v |L|=%d |M|=%d: %w", op, class, locked, per, err))
		return nil
	}
	f.enum += heu.Enumerated
	return heu
}

// fail books one failed operation and reports it on standard error.
func (f *flowPass) fail(err error) {
	f.failed++
	fmt.Fprintln(os.Stderr, "perfbench: paper-flow:", err)
}

// checkErrors recomputes a co-design result's Eqn. 2 cost on its binding.
func checkErrors(d *bindlock.Design, r *bindlock.CoDesignResult) error {
	e, err := d.ApplicationErrors(r.Cfg, r.Binding)
	if err != nil {
		return err
	}
	if e != r.Errors {
		return fmt.Errorf("co-design reports %d errors, its binding gives %d", r.Errors, e)
	}
	return nil
}

// optimalFits reports whether the optimal co-design's enumeration of
// C(n, per)^locked combinations stays within the facade's default budget
// (CoDesignOptimal refuses larger ones).
func optimalFits(n, per, locked int) bool {
	combos := len(codesign.Combinations(n, per))
	total := 1
	for range locked {
		total *= combos
		if total > codesign.DefaultMaxEnumerations {
			return false
		}
	}
	return true
}

// prepareTraced is PrepareBenchmark split into its module calls, in the
// order the facade makes them, so each gets its own span.
func (f *flowPass) prepareTraced(ctx context.Context, k bindlock.Benchmark, wseed int64, op string, kid int) (*bindlock.Design, error) {
	var g *dfg.Graph
	if _, err := f.call("frontend.compile", op, kid, func() (e error) { g, e = k.Compile(); return e }); err != nil {
		return nil, err
	}
	cons := sched.Constraints{MaxFUs: map[dfg.Class]int{dfg.ClassAdd: flowFUs, dfg.ClassMul: flowFUs}}
	if _, err := f.call("sched.schedule", op, kid, func() error { _, e := sched.PathBased(g, cons); return e }); err != nil {
		return nil, err
	}
	var tr *trace.Trace
	f.call("trace.generate", op, kid, func() error {
		var names []string
		for _, id := range g.Inputs() {
			names = append(names, g.Ops[id].Name)
		}
		tr = trace.Generate(k.Gen, names, mediabench.DefaultSamples, wseed)
		return nil
	})
	var res *sim.Result
	if _, err := f.call("sim.run", op, kid, func() (e error) { res, e = sim.Run(ctx, g, tr); return e }); err != nil {
		return nil, err
	}
	return &bindlock.Design{G: g, Res: res, NumFUs: flowFUs, Trace: tr}, nil
}

func (b *flowBench) layers(tr *tracer, _ passResult, _ []passResult) (map[string]float64, error) {
	self := selfTimes(tr.snapshot())
	m := zeroLayers()
	m["frontend.compile_s"] = self["frontend.compile"].Seconds()
	m["sched.schedule_s"] = self["sched.schedule"].Seconds()
	m["sim.run_s"] = self["sim.run"].Seconds()
	m["sim.samples_per_s"] = ratio(float64(b.traced.samples), self["sim.run"].Seconds())
	m["binding.bind_s"] = self["binding.bind"].Seconds()
	m["codesign.heuristic_s"] = self["codesign.heuristic"].Seconds()
	m["codesign.optimal_s"] = self["codesign.optimal"].Seconds()
	m["codesign.enumerated"] = float64(b.traced.enum)
	m["lockedsim.run_s"] = self["lockedsim.run"].Seconds()
	m["rtl.measure_s"] = self["rtl.measure"].Seconds()
	return m, nil
}
