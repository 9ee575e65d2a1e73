package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"bindlock/internal/netlist"
	"bindlock/internal/progress"
	"bindlock/internal/sat"
	"bindlock/internal/satattack"
)

// The attack workloads' sizes. A pass attacks a fixed number of seeded
// locks one after another; on a 2-CPU x86 box it takes about 20 s, and
// enough locks are averaged that the per-DIP figures spread little across
// seeds (single attacks vary over 30x).
const (
	// sfll-dips: SFLL-HD(0) on the 4-bit multiplier. One secret from the
	// 256-pattern space costs 10 to 255 DIPs; at 5 bits one attack takes
	// 0.1 to 11 s, too few per pass to average.
	sfllWidth = 4
	sfllLocks = 128
	// xor-search: 16 XOR/XNOR key gates on the 6-bit multiplier, about 600
	// conflicts per DIP. With 32 key gates on the 8-bit multiplier a lock
	// costs 0.5 to 3.6 s, so a pass holds only a dozen and spreads about
	// 20% across seeds; here a lock costs 0.03 to 0.25 s.
	xorWidth    = 6
	xorKeyGates = 16
	xorLocks    = 220
)

// lockInst is one locked circuit with its correct key and attack oracle.
type lockInst struct {
	name   string
	locked *netlist.Circuit
	key    []bool
	oracle satattack.Oracle
}

// attackBench runs satattack.Attack once per lock, one after another, with
// the default options (no checkpoint).
type attackBench struct {
	build func() ([]lockInst, error)
	// perDIP makes each DIP an operation, timed from one progress step to
	// the next; otherwise each attack is one. sfll-dips times the cheap
	// DIP it stresses. xor-search times the attack: it has few, hard DIPs,
	// and the tail of its ~1200 DIP latencies came from a handful of locks
	// and moved 27% between seeds.
	perDIP bool
	locks  []lockInst
	// dips holds each lock's DIP count from its first attack in the run;
	// every later attack of the same lock must repeat it exactly.
	dips []int
	// probes are the traced pass's per-attack layer records.
	probes []*attackProbe
}

func newSFLLBench(seed int64, _ string) bench {
	secrets := sfllSecrets(seed, sfllLocks, 2*sfllWidth)
	return &attackBench{perDIP: true, build: func() ([]lockInst, error) {
		base, err := netlist.NewMultiplier(sfllWidth)
		if err != nil {
			return nil, err
		}
		locks := make([]lockInst, len(secrets))
		for i, s := range secrets {
			lc, key, err := netlist.LockSFLLHD0(base, []uint64{s})
			if err != nil {
				return nil, err
			}
			locks[i] = lockInst{fmt.Sprintf("sfll-%d", s), lc, key, satattack.OracleFromCircuit(lc, key)}
		}
		return locks, nil
	}}
}

func newXORBench(seed int64, _ string) bench {
	lockSeeds := xorLockSeeds(seed, xorLocks)
	return &attackBench{build: func() ([]lockInst, error) {
		base, err := netlist.NewMultiplier(xorWidth)
		if err != nil {
			return nil, err
		}
		locks := make([]lockInst, len(lockSeeds))
		for i, s := range lockSeeds {
			lc, key, err := netlist.LockXOR(base, xorKeyGates, s)
			if err != nil {
				return nil, err
			}
			locks[i] = lockInst{fmt.Sprintf("xor-%d", s), lc, key, satattack.OracleFromCircuit(lc, key)}
		}
		return locks, nil
	}}
}

func (b *attackBench) setUp() error {
	locks, err := b.build()
	b.locks = locks
	if b.dips == nil {
		b.dips = make([]int, len(locks))
	}
	return err
}

func (b *attackBench) tearDown() { b.locks = nil }

func (b *attackBench) pass(_ int, tr *tracer) (passResult, error) {
	p := passResult{}
	var attackTime, verifyTime time.Duration
	var probes []*attackProbe
	for i, l := range b.locks {
		// Each progress step of the attack phase marks the end of one DIP
		// iteration; the gaps between them are the per-DIP latencies.
		var steps []time.Time
		ctx := progress.NewContext(context.Background(), progress.Func(func(e progress.Event) {
			if e.Kind == progress.Step && e.Phase == "attack" {
				steps = append(steps, time.Now())
			}
		}))
		// Every attack starts from a collected heap, as in a fresh
		// process, so peak RSS follows the largest attack rather than
		// where the collector's cycle happened to fall.
		runtime.GC()
		opts, oracle := satattack.Options{}, l.oracle
		var probe *attackProbe
		if tr != nil {
			probe = &attackProbe{tr: tr, op: l.name}
			opts.Backend, opts.Solver = probe.factory(), sat.DefaultBackend
			oracle = tracedOracle{l.oracle, probe}
			probes = append(probes, probe)
			probe.start()
		}
		t0 := time.Now()
		res, err := satattack.Attack(ctx, l.locked, oracle, opts)
		took := time.Since(t0)
		attackTime += took
		if probe != nil {
			probe.stop()
		}
		p.attempted++
		if err != nil {
			p.failed++
			continue
		}
		if b.perDIP {
			prev := t0
			for _, s := range steps {
				p.lat = append(p.lat, s.Sub(prev))
				prev = s
			}
		} else {
			p.lat = append(p.lat, took)
		}
		p.units += res.Iterations
		if b.dips[i] == 0 {
			b.dips[i] = res.Iterations
		}
		// A fresh clean oracle, so a fault in the attack's oracle path
		// cannot vouch for its own key.
		id := tr.begin("satattack.VerifyKey", l.name, 0)
		t := time.Now()
		verr := satattack.VerifyKey(context.Background(), l.locked, res.Key, satattack.OracleFromCircuit(l.locked, l.key))
		verifyTime += time.Since(t)
		tr.end(id)
		if verr != nil || res.Iterations != b.dips[i] {
			p.failed++
		}
	}
	p.work = attackTime
	p.record = map[string]float64{
		"attack_s": attackTime.Seconds(),
		"dip_ms":   unitMS(p),
		"dips":     float64(p.units),
		"attacks":  float64(len(b.locks)),
		"verify_s": verifyTime.Seconds(),
	}
	b.probes = probes
	return p, nil
}

func (b *attackBench) layers(tr *tracer, p passResult, _ []passResult) (map[string]float64, error) {
	spans := tr.snapshot()
	self := selfTimes(spans)
	var feed time.Duration
	var vars, clauses, queries int64
	var alloc uint64
	var st sat.Stats
	for _, pr := range b.probes {
		feed += pr.feed
		vars += pr.vars
		clauses += pr.clauses
		queries += pr.queries
		alloc += pr.alloc
		for _, be := range pr.backends {
			s := be.Stats()
			st.Conflicts += s.Conflicts
			st.Propagations += s.Propagations
		}
	}
	solves := 0
	for _, s := range spans {
		if s.Name == "sat.solve" {
			solves++
		}
	}
	solve := self["sat.solve"].Seconds()
	dips := float64(p.units)
	m := zeroLayers()
	m["sat.solve_s"] = solve
	m["sat.solves"] = float64(solves)
	m["sat.feed_s"] = feed.Seconds()
	m["sat.props_per_s"] = ratio(float64(st.Propagations), solve)
	m["sat.conflicts_per_s"] = ratio(float64(st.Conflicts), solve)
	m["sat.props_per_conflict"] = ratio(float64(st.Propagations), float64(st.Conflicts))
	m["cnf.vars_per_dip"] = ratio(float64(vars), dips)
	m["cnf.clauses_per_dip"] = ratio(float64(clauses), dips)
	m["netlist.oracle_s"] = self["netlist.oracle"].Seconds()
	m["netlist.oracle_queries"] = float64(queries)
	// The attack span's self time still holds the feed calls, which are
	// timed in aggregate rather than as spans.
	m["satattack.self_s"] = (self["satattack.Attack"] - feed).Seconds()
	m["satattack.alloc_mb"] = ratio(float64(alloc)/(1<<20), float64(len(b.probes)))
	m["satattack.dips"] = dips
	m["satattack.verify_s"] = self["satattack.VerifyKey"].Seconds()
	return m, nil
}

// zeroLayers returns every per-layer metric at 0, the reading of a layer
// the workload does not exercise.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(layerUnits))
	for name := range layerUnits {
		m[name] = 0
	}
	return m
}

// attackProbe records one traced attack: its span, the solve spans under
// it, and the calls into the sat layer that are too fine-grained for spans
// (NewVar, AddClause), timed and counted in aggregate.
type attackProbe struct {
	tr   *tracer
	op   string
	span int
	// backends are the solvers the attack built, for their search counters.
	backends  []sat.Backend
	feed      time.Duration
	feedCalls int64
	vars      int64
	clauses   int64
	queries   int64
	alloc     uint64
	alloc0    uint64
}

// start opens the attack span and samples the allocation counter.
func (p *attackProbe) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc0 = ms.TotalAlloc
	p.span = p.tr.begin("satattack.Attack", p.op, 0)
}

// stop closes the attack span and records the bytes it allocated.
func (p *attackProbe) stop() {
	p.tr.end(p.span)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc - p.alloc0
}

// feedSample is the share of NewVar/AddClause calls timed: one in
// feedSample, scaled up. A call costs about as much as the two clock reads
// that time it, so timing every call would double the layer it measures.
const feedSample = 16

// sampleFeed reports whether the current feed call is one of the timed.
func (p *attackProbe) sampleFeed() bool {
	p.feedCalls++
	return p.feedCalls%feedSample == 0
}

// addFeed books one timed feed call, less the clock's own cost, for the
// feedSample calls it stands for.
func (p *attackProbe) addFeed(d time.Duration) {
	p.feed += max(0, d-p.tr.clock) * feedSample
}

// factory wraps the registered default backend. The attack sees the same
// solver, called the same way: the wrapper only delegates and times.
func (p *attackProbe) factory() sat.Factory {
	inner, err := sat.BackendFactory(sat.DefaultBackend)
	if err != nil {
		panic(err) // the default backend registers itself at init
	}
	return func() sat.Backend {
		b := inner()
		p.backends = append(p.backends, b)
		return tracedBackend{b, p}
	}
}

// tracedBackend delegates every call to the wrapped solver.
type tracedBackend struct {
	sat.Backend
	p *attackProbe
}

func (b tracedBackend) NewVar() int {
	b.p.vars++
	if !b.p.sampleFeed() {
		return b.Backend.NewVar()
	}
	t := time.Now()
	v := b.Backend.NewVar()
	b.p.addFeed(time.Since(t))
	return v
}

func (b tracedBackend) AddClause(lits ...sat.Lit) bool {
	b.p.clauses++
	if !b.p.sampleFeed() {
		return b.Backend.AddClause(lits...)
	}
	t := time.Now()
	ok := b.Backend.AddClause(lits...)
	b.p.addFeed(time.Since(t))
	return ok
}

func (b tracedBackend) Solve(ctx context.Context) (bool, error) {
	id := b.p.tr.begin("sat.solve", b.p.op, b.p.span)
	defer b.p.tr.end(id)
	return b.Backend.Solve(ctx)
}

func (b tracedBackend) SolveAssuming(ctx context.Context, assumps ...sat.Lit) (bool, error) {
	id := b.p.tr.begin("sat.solve", b.p.op, b.p.span)
	defer b.p.tr.end(id)
	return b.Backend.SolveAssuming(ctx, assumps...)
}

// tracedOracle delegates to the attack's oracle and spans each query.
type tracedOracle struct {
	inner satattack.Oracle
	p     *attackProbe
}

func (o tracedOracle) Query(in []bool) ([]bool, error) {
	id := o.p.tr.begin("netlist.oracle", o.p.op, o.p.span)
	defer o.p.tr.end(id)
	o.p.queries++
	return o.inner.Query(in)
}
