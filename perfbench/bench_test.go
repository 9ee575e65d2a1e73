package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"bindlock"
	"bindlock/internal/metrics"
	"bindlock/internal/sat"
	"bindlock/internal/satattack"
)

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json names exactly
// the workloads and metrics the program runs and reports, with the same
// units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, w := range spec.Workloads {
		names[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not in the program", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(names), len(workloads))
	}
	for _, set := range []struct {
		listed []struct{ Name, Unit string }
		units  map[string]string
	}{{spec.EndToEnd, e2eUnits}, {spec.PerLayer, layerUnits}} {
		if len(set.listed) != len(set.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(set.listed), len(set.units))
		}
		for _, m := range set.listed {
			if u, ok := set.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, program unit %q", m.Name, m.Unit, u)
			}
		}
	}
}

// TestTracedAttackIsTransparent runs one lock of each attack workload with
// and without the delegating sat.Factory and Oracle: the key, the DIP count
// and the deterministic attack metrics must match, so the traced run
// measures the same program.
func TestTracedAttackIsTransparent(t *testing.T) {
	for name, mk := range map[string]func(int64, string) bench{"sfll": newSFLLBench, "xor": newXORBench} {
		b := mk(1, "").(*attackBench)
		if err := b.setUp(); err != nil {
			t.Fatal(err)
		}
		l := b.locks[0]
		run := func(traced bool) (*satattack.Result, metrics.Snapshot, *attackProbe) {
			reg := metrics.New()
			ctx := metrics.NewContext(context.Background(), reg)
			opts, oracle := satattack.Options{}, l.oracle
			var p *attackProbe
			if traced {
				p = &attackProbe{tr: newTracer(), op: l.name}
				opts.Backend, opts.Solver = p.factory(), sat.DefaultBackend
				oracle = tracedOracle{l.oracle, p}
				p.start()
			}
			res, err := satattack.Attack(ctx, l.locked, oracle, opts)
			if p != nil {
				p.stop()
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			return res, reg.Snapshot().Deterministic(), p
		}
		plain, plainM, _ := run(false)
		wrapped, wrappedM, p := run(true)
		if !reflect.DeepEqual(plain.Key, wrapped.Key) {
			t.Errorf("%s: keys differ", name)
		}
		if plain.Iterations != wrapped.Iterations {
			t.Errorf("%s: %d DIPs unwrapped, %d wrapped", name, plain.Iterations, wrapped.Iterations)
		}
		if !reflect.DeepEqual(plainM, wrappedM) {
			t.Errorf("%s: deterministic metrics differ:\n%+v\n%+v", name, plainM, wrappedM)
		}
		if p.queries == 0 || p.vars == 0 || p.clauses == 0 || len(p.backends) == 0 {
			t.Errorf("%s: the wrappers saw no calls: %+v", name, p)
		}
	}
}

// TestTracedPrepareMatchesFacade checks that the traced pass's split of
// PrepareBenchmark into module calls prepares the same design.
func TestTracedPrepareMatchesFacade(t *testing.T) {
	ctx := context.Background()
	for _, k := range bindlock.Benchmarks() {
		want, err := bindlock.PrepareBenchmark(ctx, k.Name, bindlock.WithMaxFUs(flowFUs), bindlock.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		f := &flowPass{tr: newTracer()}
		got, err := f.prepareTraced(ctx, k, 7, k.Name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: traced prepare differs from PrepareBenchmark", k.Name)
		}
	}
}
