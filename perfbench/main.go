// Command perfbench is the repository's benchmark. It runs one of four
// seeded workloads over the gate-level SAT attack, the paper's
// binding/co-design flow and the bindlockd job server, and prints their
// end-to-end metrics (tracing off) or, with --trace 1, per-layer metrics
// from spans it records around its own calls into each module.
//
// Run it from the repository root; run.sh builds it from source first:
//
//	bash perfbench/run.sh --workload sfll-dips --seed 1 --seconds 20 --trace 0
//
// Every workload repeats a pass of fixed, seeded work until --seconds is
// used up (at least one pass) and reports medians over its passes. A pass
// of an attack workload takes about 20 s; a paper-flow or serve-mix pass
// about 2 s:
//
//	workload    pass                                   unit        operation
//	sfll-dips   SAT attacks on SFLL-locked mul4        one DIP     one DIP
//	xor-search  SAT attacks on XOR-locked mul6         one DIP     one attack
//	paper-flow  11 kernels x 2 classes, Fig. 4 grid    grid point  grid point
//	serve-mix   two closed-loop clients, one server    one job     one job
//
// The end-to-end metrics are the same on every workload: setup_s (median
// set-up), peak_rss_mb, unit_ms (the pass's work time per unit: dip_ms on
// the attack workloads, flow_s per grid point, wall time per completed
// job), latency_p50_ms and latency_tail_ms (per operation; the tail is the
// highest percentile with at least ten samples beyond it). The workload's
// own figures (attack_s, flow_s, jobs_per_s, fail_ratio, serve-mix latency
// per job kind...) go in the record line printed just before the result.
//
// A traced run (--trace 1) is an untraced run followed by one traced pass
// that repeats pass 0's work.
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": 1, "failed": 0, "metrics": {"name": {"value": 1.5, "unit": "ms"}}}
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up before the first
// pass; setup_s is the median over these and the per-pass set-ups. A
// set-up takes 0.2 to 10 ms, mostly allocation, file-system calls and
// goroutine start-up, and one alone varies by 2x.
const setupReps = 101

// setupGap is the idle time before each set-up, so each starts from an
// idle process, as the program's own set-up does. Run back to back, a
// set-up finds the runtime's threads still awake from the one before: on
// a 2-CPU x86 box the serve-mix median read 56-116 us across runs that
// way, and 286-367 us after a pause.
const setupGap = 10 * time.Millisecond

// e2eUnits are the end-to-end metrics every untraced run reports.
var e2eUnits = map[string]string{
	"setup_s":         "s",
	"peak_rss_mb":     "MB",
	"unit_ms":         "ms",
	"latency_p50_ms":  "ms",
	"latency_tail_ms": "ms",
}

// layerUnits are the per-layer metrics every traced run reports. A layer a
// workload does not exercise reads 0 there.
var layerUnits = map[string]string{
	"sat.solve_s":                      "s",
	"sat.solves":                       "count",
	"sat.feed_s":                       "s",
	"sat.props_per_s":                  "1/s",
	"sat.conflicts_per_s":              "1/s",
	"sat.props_per_conflict":           "count",
	"cnf.vars_per_dip":                 "count",
	"cnf.clauses_per_dip":              "count",
	"netlist.oracle_s":                 "s",
	"netlist.oracle_queries":           "count",
	"satattack.self_s":                 "s",
	"satattack.alloc_mb":               "MB",
	"satattack.dips":                   "count",
	"satattack.verify_s":               "s",
	"satattack.ckpt_ms":                "ms",
	"frontend.compile_s":               "s",
	"sched.schedule_s":                 "s",
	"sim.run_s":                        "s",
	"sim.samples_per_s":                "1/s",
	"binding.bind_s":                   "s",
	"codesign.heuristic_s":             "s",
	"codesign.optimal_s":               "s",
	"codesign.enumerated":              "count",
	"lockedsim.run_s":                  "s",
	"rtl.measure_s":                    "s",
	"server.submit_ms":                 "ms",
	"server.queue_wait_ms.attack":      "ms",
	"server.queue_wait_ms.codesign":    "ms",
	"server.queue_wait_ms.bind":        "ms",
	"server.run_ms.attack":             "ms",
	"server.run_ms.codesign":           "ms",
	"server.run_ms.bind":               "ms",
	"server.hit_ratio":                 "ratio",
	"server.recomputed":                "count",
	"server.deduped":                   "count",
	"server.memo_hit_ratio":            "ratio",
	"server.latency_p50_ms.cold":       "ms",
	"server.latency_p50_ms.repeat":     "ms",
	"server.latency_p50_ms.duplicate":  "ms",
	"server.latency_p50_ms.design":     "ms",
	"server.latency_tail_ms.cold":      "ms",
	"server.latency_tail_ms.repeat":    "ms",
	"server.latency_tail_ms.duplicate": "ms",
	"server.latency_tail_ms.design":    "ms",
	"store.get_ms":                     "ms",
	"store.put_ms":                     "ms",
	"store.hits":                       "count",
	"store.misses":                     "count",
	"store.auth_fail":                  "count",
	"trace.overhead_pct":               "%",
}

// passResult is what one pass over a workload's seeded work measured.
type passResult struct {
	attempted, failed int
	// units counts the work done: DIPs, grid points or jobs.
	units int
	// work is the time spent in the measured calls (attack_s, flow_s, or
	// the pass's wall time on serve-mix).
	work time.Duration
	// lat holds one latency per operation.
	lat []time.Duration
	// kindLat splits lat by kind of operation, where a workload has kinds.
	kindLat map[string][]time.Duration
	// record holds the workload's own named figures for the record line.
	record map[string]float64
}

// bench is one workload.
type bench interface {
	// setUp builds the inputs (and, on serve-mix, the server) of one pass.
	setUp() error
	// tearDown releases what setUp built.
	tearDown()
	// pass runs the measured work once; tr is nil with tracing off.
	pass(i int, tr *tracer) (passResult, error)
	// layers derives the per-layer metrics of the traced pass p; untraced
	// holds the run's untraced passes.
	layers(tr *tracer, p passResult, untraced []passResult) (map[string]float64, error)
}

var workloads = map[string]func(seed int64, dir string) bench{
	"sfll-dips":  newSFLLBench,
	"xor-search": newXORBench,
	"paper-flow": newFlowBench,
	"serve-mix":  newServeBench,
}

func main() {
	workload := flag.String("workload", "", "workload: sfll-dips, xor-search, paper-flow or serve-mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long to measure")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced pass")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and scratch files")
	flag.Parse()
	if err := runMain(*workload, *seed, *seconds, *traced == 1, *out, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(workload string, seed int64, seconds int, traced bool, out string, w io.Writer) error {
	mk, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d below 1", seconds)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(out, workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	b := mk(seed, scratch)

	var setups []float64
	setUp := func() error {
		time.Sleep(setupGap)
		t := time.Now()
		err := b.setUp()
		setups = append(setups, time.Since(t).Seconds())
		return err
	}
	for range setupReps - 1 {
		if err := setUp(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.tearDown()
	}

	var passes []passResult
	start := time.Now()
	for i := 0; ; i++ {
		if err := setUp(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		t := time.Now()
		p, err := b.pass(i, nil)
		b.tearDown()
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		passes = append(passes, p)
		if time.Since(start)+time.Since(t) > time.Duration(seconds)*time.Second {
			break
		}
	}
	untraced := passes
	var metrics map[string]float64
	if traced {
		// The traced pass repeats pass 0's work on a fresh set-up, so the
		// difference in unit cost is the tracing overhead.
		if err := setUp(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		tr := newTracer()
		tp, err := b.pass(0, tr)
		if err == nil {
			passes = append(passes, tp)
			metrics, err = b.layers(tr, tp, untraced)
		}
		b.tearDown()
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		metrics["trace.overhead_pct"] = 100 * (ratio(unitMS(tp), unitMS(untraced[0])) - 1)
		if err := tr.write(filepath.Join(out, fmt.Sprintf("spans-%s-%d.json", workload, seed))); err != nil {
			return err
		}
	} else {
		metrics = e2e(passes, setups)
	}

	var attempted, failed int
	for _, p := range passes {
		attempted += p.attempted
		failed += p.failed
	}
	rec := record(workload, seed, seconds, traced, passes, untraced, setups)
	res := map[string]any{}
	units := e2eUnits
	if traced {
		units = layerUnits
	}
	for name, unit := range units {
		v, ok := metrics[name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", workload, name)
		}
		res[name] = map[string]any{"value": v, "unit": unit}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		return err
	}
	return enc.Encode(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": res,
	})
}

func unitMS(p passResult) float64 {
	return ratio(float64(p.work)/float64(time.Millisecond), float64(p.units))
}

// e2e reduces the passes to the end-to-end metrics: medians over passes.
func e2e(passes []passResult, setups []float64) map[string]float64 {
	var unit, p50, tl []float64
	for _, p := range passes {
		ms := millis(p.lat)
		unit = append(unit, unitMS(p))
		p50 = append(p50, median(ms))
		v, _, _ := tail(ms)
		tl = append(tl, v)
	}
	return map[string]float64{
		"setup_s":         median(setups),
		"peak_rss_mb":     peakRSSMB(),
		"unit_ms":         median(unit),
		"latency_p50_ms":  median(p50),
		"latency_tail_ms": median(tl),
	}
}

// record is the stamped run record: what ran, where, on which code, with
// the workload's own figures (medians over passes), the latency of each
// kind of operation pooled over the untraced passes, and the sample count
// behind every latency.
func record(workload string, seed int64, seconds int, traced bool, passes, untraced []passResult, setups []float64) map[string]any {
	figures := map[string][]float64{}
	var samples []int
	var pct float64
	attempted, failed := 0, 0
	for _, p := range passes {
		for k, v := range p.record {
			figures[k] = append(figures[k], v)
		}
		samples = append(samples, len(p.lat))
		_, pct, _ = tail(millis(p.lat))
		attempted += p.attempted
		failed += p.failed
	}
	med := map[string]float64{"fail_ratio": ratio(float64(failed), float64(attempted))}
	for k, vs := range figures {
		med[k] = median(vs)
	}
	kinds := map[string]any{}
	for kind, ms := range poolKinds(untraced) {
		v, pct, _ := tail(ms)
		kinds[kind] = map[string]any{"p50_ms": median(ms), "tail_ms": v, "tail_percentile": pct, "samples": len(ms)}
	}
	return map[string]any{
		"workload":        workload,
		"seed":            seed,
		"seconds":         seconds,
		"trace":           traced,
		"passes":          len(passes),
		"setup_samples":   len(setups),
		"latency_samples": samples,
		"tail_percentile": pct,
		"figures":         med,
		"kind_latency":    kinds,
		"commit":          gitCommit("."),
		"source_sha256":   sourceDigest("."),
		"cpu_model":       cpuModel(),
		"num_cpu":         runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs,
// falling back to the Go runtime's total obtained memory elsewhere.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or GOARCH.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// gitCommit resolves HEAD from the .git directory under root without
// running git; a checkout without one reads "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every go.mod and .go file under root (skipping
// hidden directories such as the build directory), so a record names the
// code it measured even in a checkout without git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
