package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"bindlock"
	"bindlock/internal/metrics"
	"bindlock/internal/netlist"
	"bindlock/internal/satattack"
	"bindlock/internal/server"
	"bindlock/internal/store"
)

// The serve-mix sizes. A pass submits serveJobs jobs from two closed-loop
// clients to a fresh two-worker server. Cold attacks (5 in every 8 slots)
// draw distinct secrets from the 64-pattern space of the 3-bit adder, so
// each pass attacks nearly all of it: the attack latencies, 3 to 63 DIPs
// apart, are the same population on every pass and seed. A 20 s pass on
// the 4-bit adder attacks only 100 of its 256 secrets (10 to 255 DIPs), and
// the latency percentiles of such a sample move 15-30% between seeds.
const (
	serveJobs        = 96
	serveOperandBits = 3
	serveWorkers     = 2
	serveClients     = 2
	// serveCkptSample is how many of a traced pass's cold attacks are re-run
	// with and without a checkpoint to price the checkpoint writes.
	serveCkptSample = 8
)

// serveBench drives an in-process bindlockd: a server.Manager behind
// httptest with a sealed disk store and keyed checkpoints.
type serveBench struct {
	seed int64
	dir  string

	mgr     *server.Manager
	srv     *httptest.Server
	sealKey []byte
	ckptKey []byte

	traced *servePass
}

func newServeBench(seed int64, dir string) bench {
	rng := streamRand(seed, "serve-keys")
	sealKey := make([]byte, store.SealKeySize)
	ckptKey := make([]byte, 32)
	rng.Read(sealKey)
	rng.Read(ckptKey)
	return &serveBench{seed: seed, dir: dir, sealKey: sealKey, ckptKey: ckptKey}
}

// serveDirs are the store, checkpoint and scratch directories of a pass,
// made by the first set-up and emptied by every tear-down. Made afresh and
// deleted around each set-up, the directory calls alone varied from 0.16
// to 0.54 ms between runs on an ext4 disk, and with them the whole set-up.
var serveDirs = []string{"store", "ckpt", "work"}

// setUp opens the sealed store, starts the manager and its listener.
func (b *serveBench) setUp() error {
	for _, d := range serveDirs {
		if err := os.MkdirAll(filepath.Join(b.dir, d), 0o700); err != nil {
			return err
		}
	}
	reg := metrics.New()
	st, err := store.OpenWith(store.Options{Dir: filepath.Join(b.dir, "store"), SealKey: b.sealKey}, reg)
	if err != nil {
		return err
	}
	m, err := server.New(server.Config{
		Workers:       serveWorkers,
		CheckpointDir: filepath.Join(b.dir, "ckpt"),
		CheckpointKey: b.ckptKey,
		Store:         st,
		Registry:      reg,
	})
	if err != nil {
		return err
	}
	m.Start()
	b.mgr = m
	b.srv = httptest.NewServer(m.Handler())
	return nil
}

func (b *serveBench) tearDown() {
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
	if b.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		b.mgr.Drain(ctx)
		cancel()
		b.mgr = nil
	}
	for _, d := range serveDirs {
		entries, _ := os.ReadDir(filepath.Join(b.dir, d))
		for _, e := range entries {
			os.RemoveAll(filepath.Join(b.dir, d, e.Name()))
		}
	}
}

// jobOutcome is one finished closed-loop step.
type jobOutcome struct {
	slot slotKind
	// wasDone marks a request some client had already seen reported done
	// when this step submitted it: the cache should answer it.
	wasDone bool
	job     server.Job
	lat     time.Duration
	submit  time.Duration
	ok      bool
}

// servePass is the state the two clients share during one pass.
type servePass struct {
	mu        sync.Mutex
	secrets   []uint64
	designs   []designSpec
	nextCold  int
	nextDes   int
	done      []server.Request
	canonical map[string][]byte // fingerprint key → first result bytes
	inflight  [serveClients]*server.Request
	last      [serveClients]*server.Request
	outcomes  []jobOutcome
	coldReqs  []uint64
}

func (b *serveBench) pass(_ int, tr *tracer) (passResult, error) {
	kernels := make([]string, 0, 11)
	for _, k := range bindlock.Benchmarks() {
		kernels = append(kernels, k.Name)
	}
	perClient := serveJobs / serveClients
	sp := &servePass{
		secrets:   serveSecrets(b.seed, 2*serveOperandBits),
		designs:   serveDesigns(b.seed, kernels, serveJobs),
		canonical: map[string][]byte{},
	}
	client := b.srv.Client()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range serveClients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, s := range jobPlan(b.seed, c, perClient) {
				req, kind, wasDone := sp.choose(c, s)
				o := b.roundTrip(client, req, tr, fmt.Sprintf("client%d-%d", c, i))
				o.slot, o.wasDone = kind, wasDone
				sp.settle(c, req, &o)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	p := passResult{work: wall, kindLat: map[string][]time.Duration{}}
	stats := map[string]float64{}
	for _, o := range sp.outcomes {
		stats[o.slot.String()]++
		switch {
		case o.job.Cached:
			stats["cached"]++
		case o.job.AttachedTo != "":
			stats["attached"]++
		}
		p.attempted++
		if !o.ok {
			p.failed++
			continue
		}
		p.units++
		p.lat = append(p.lat, o.lat)
		p.kindLat[o.slot.String()] = append(p.kindLat[o.slot.String()], o.lat)
	}
	p.record = map[string]float64{
		"jobs_per_s":      ratio(float64(p.units), wall.Seconds()),
		"wall_s":          wall.Seconds(),
		"latency_p50_ms":  median(millis(p.lat)),
		"jobs":            float64(p.units),
		"cold_jobs":       stats["cold"],
		"repeat_jobs":     stats["repeat"],
		"duplicate_jobs":  stats["duplicate"],
		"design_jobs":     stats["design"],
		"cached_jobs":     stats["cached"],
		"attached_jobs":   stats["attached"],
		"recomputed_jobs": float64(sp.recomputed()),
	}
	if v, _, ok := tail(millis(p.lat)); ok {
		p.record["latency_tail_ms"] = v
	}
	if tr != nil {
		b.traced = sp
	}
	return p, nil
}

// choose turns client c's next slot into a request, and returns the kind
// of step it became and whether the request was already reported done.
func (sp *servePass) choose(c int, s slot) (server.Request, slotKind, bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	var req server.Request
	kind := s.Kind
	switch s.Kind {
	case slotRepeat:
		if len(sp.done) > 0 {
			req = sp.done[int(s.Pick)%len(sp.done)]
		}
	case slotDuplicate:
		other := 1 - c
		if r := sp.inflight[other]; r != nil {
			req = *r
		} else if r := sp.last[other]; r != nil {
			req = *r
		}
	case slotDesign:
		// Three jobs per design: a codesign that prepares it cold, then a
		// bind and a wider codesign that find it in the design memo.
		k := sp.nextDes
		sp.nextDes++
		d := sp.designs[k/3]
		req = server.Request{Kind: server.KindCodesign, Bench: d.Bench, Seed: d.Seed, MaxFUs: flowFUs, LockedFUs: 1}
		switch k % 3 {
		case 1:
			req.Kind = server.KindBind
		case 2:
			req.LockedFUs = 2
		}
	}
	if req.Kind == "" {
		// A cold attack, also standing in for a repeat or duplicate slot
		// with nothing to repeat yet.
		s := sp.secrets[sp.nextCold%len(sp.secrets)]
		sp.nextCold++
		sp.coldReqs = append(sp.coldReqs, s)
		req = server.Request{Kind: server.KindAttack, OperandBits: serveOperandBits, Secret: s}
		kind = slotCold
	}
	sp.inflight[c] = &req
	return req, kind, slices.Contains(sp.done, req)
}

// settle records a finished step and checks it: a job that did not end
// done, and a result whose bytes differ from the first result for the same
// request, count as failed.
func (sp *servePass) settle(c int, req server.Request, o *jobOutcome) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.inflight[c] = nil
	sp.last[c] = &req
	if o.ok {
		if first, seen := sp.canonical[o.job.Key]; !seen {
			sp.canonical[o.job.Key] = o.job.Result
			sp.done = append(sp.done, req)
		} else if !bytes.Equal(first, o.job.Result) {
			o.ok = false
		}
	}
	sp.outcomes = append(sp.outcomes, *o)
}

// recomputed counts submissions of a request already reported done that
// were neither served from the cache nor attached, so they executed again.
func (sp *servePass) recomputed() int {
	n := 0
	for _, o := range sp.outcomes {
		if o.wasDone && o.ok && !o.job.Cached && o.job.AttachedTo == "" {
			n++
		}
	}
	return n
}

// roundTrip submits req and long-polls until the job is terminal.
func (b *serveBench) roundTrip(client *http.Client, req server.Request, tr *tracer, op string) jobOutcome {
	jid := tr.begin("serve.job", op, 0)
	defer tr.end(jid)
	body, err := json.Marshal(req)
	if err != nil {
		return jobOutcome{}
	}
	t0 := time.Now()
	sid := tr.begin("server.submit", op, jid)
	var job server.Job
	err = call(client, http.MethodPost, b.srv.URL+"/v1/jobs", body, &job)
	tr.end(sid)
	o := jobOutcome{submit: time.Since(t0)}
	if err != nil {
		return o
	}
	wid := tr.begin("server.wait", op, jid)
	for err == nil && !job.State.Terminal() {
		err = call(client, http.MethodGet, b.srv.URL+"/v1/jobs/"+job.ID+"?wait=60s", nil, &job)
	}
	tr.end(wid)
	o.lat = time.Since(t0)
	o.job = job
	o.ok = err == nil && job.State == server.StateDone
	return o
}

// call makes one API request and decodes the job record it answers with.
func call(client *http.Client, method, url string, body []byte, out *server.Job) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (b *serveBench) layers(tr *tracer, p passResult, untraced []passResult) (map[string]float64, error) {
	sp := b.traced
	m := zeroLayers()
	// The latency of each kind of job comes from the untraced passes: it
	// needs no spans, and one pass holds only a dozen jobs of each kind
	// but cold attacks, too few for a tail.
	for kind, ms := range poolKinds(untraced) {
		m["server.latency_p50_ms."+kind] = median(ms)
		m["server.latency_tail_ms."+kind], _, _ = tail(ms)
	}
	var submits []float64
	wait := map[string][]float64{}
	run := map[string][]float64{}
	var repeats, hits, deduped float64
	for _, o := range sp.outcomes {
		submits = append(submits, float64(o.submit)/float64(time.Millisecond))
		j := o.job
		if o.wasDone {
			repeats++
			if j.Cached {
				hits++
			}
		}
		if j.AttachedTo != "" {
			deduped++
		}
		if j.Cached || j.AttachedTo != "" || j.Started == nil || j.Finished == nil {
			continue
		}
		wait[j.Kind] = append(wait[j.Kind], float64(j.Started.Sub(j.Created))/float64(time.Millisecond))
		run[j.Kind] = append(run[j.Kind], float64(j.Finished.Sub(*j.Started))/float64(time.Millisecond))
	}
	m["server.submit_ms"] = median(submits)
	for _, kind := range []string{server.KindAttack, server.KindCodesign, server.KindBind} {
		m["server.queue_wait_ms."+kind] = median(wait[kind])
		m["server.run_ms."+kind] = median(run[kind])
	}
	m["server.hit_ratio"] = ratio(hits, repeats)
	m["server.recomputed"] = float64(sp.recomputed())
	m["server.deduped"] = deduped

	snap := b.mgr.Registry().Snapshot()
	counter := func(name string) float64 { v, _ := snap.Counter(name); return float64(v) }
	memoHit, memoMiss := counter("server_design_memo_hit_total"), counter("server_design_memo_miss_total")
	m["server.memo_hit_ratio"] = ratio(memoHit, memoHit+memoMiss)
	m["store.hits"] = counter("store_hit_total")
	m["store.misses"] = counter("store_miss_total")
	m["store.auth_fail"] = counter("store_auth_fail_total")

	get, put, err := b.replayStore(tr, sp)
	if err != nil {
		return nil, err
	}
	m["store.get_ms"], m["store.put_ms"] = get, put
	ckpt, err := b.checkpointCost(tr, sp)
	if err != nil {
		return nil, err
	}
	m["satattack.ckpt_ms"] = ckpt
	return m, nil
}

// replayStore times Store.Put and then Store.Get of this pass's result
// payloads on a fresh sealed store, and returns their medians in ms.
func (b *serveBench) replayStore(tr *tracer, sp *servePass) (get, put float64, err error) {
	st, err := store.OpenWith(store.Options{Dir: filepath.Join(b.dir, "work", "replay"), SealKey: b.sealKey}, nil)
	if err != nil {
		return 0, 0, err
	}
	var gets, puts []float64
	for key, data := range sp.canonical {
		id := tr.begin("store.put", key, 0)
		t := time.Now()
		err := st.Put(key, data)
		puts = append(puts, float64(time.Since(t))/float64(time.Millisecond))
		tr.end(id)
		if err != nil {
			return 0, 0, err
		}
	}
	// A second store on the same directory starts with an empty memory
	// tier, so every Get reads and opens the sealed file.
	cold, err := store.OpenWith(store.Options{Dir: filepath.Join(b.dir, "work", "replay"), SealKey: b.sealKey}, nil)
	if err != nil {
		return 0, 0, err
	}
	for key, data := range sp.canonical {
		id := tr.begin("store.get", key, 0)
		t := time.Now()
		got, ok := cold.Get(key)
		gets = append(gets, float64(time.Since(t))/float64(time.Millisecond))
		tr.end(id)
		if !ok || !bytes.Equal(got, data) {
			return 0, 0, fmt.Errorf("store replay: entry %s did not read back", key)
		}
	}
	return median(gets), median(puts), nil
}

// checkpointCost re-runs a sample of the pass's cold attacks through
// satattack.Attack without and then with a keyed checkpoint written every
// DIP, and returns the mean extra ms per attack.
func (b *serveBench) checkpointCost(tr *tracer, sp *servePass) (float64, error) {
	base, err := netlist.NewAdder(serveOperandBits)
	if err != nil {
		return 0, err
	}
	sample := sp.coldReqs[:min(serveCkptSample, len(sp.coldReqs))]
	var extra time.Duration
	for _, s := range sample {
		locked, key, err := netlist.LockSFLLHD0(base, []uint64{s})
		if err != nil {
			return 0, err
		}
		oracle := satattack.OracleFromCircuit(locked, key)
		op := fmt.Sprintf("sfll-%d", s)
		var took [2]time.Duration
		for i, path := range []string{"", filepath.Join(b.dir, "work", "sample.ckpt")} {
			opts := satattack.Options{}
			name := "satattack.Attack"
			if path != "" {
				opts.CheckpointPath, opts.CheckpointEvery, opts.CheckpointKey = path, 1, b.ckptKey
				name = "satattack.Attack+ckpt"
			}
			id := tr.begin(name, op, 0)
			t := time.Now()
			_, err := satattack.Attack(context.Background(), locked, oracle, opts)
			took[i] = time.Since(t)
			tr.end(id)
			if err != nil {
				return 0, err
			}
			if path != "" {
				os.Remove(path)
			}
		}
		extra += took[1] - took[0]
	}
	return ratio(float64(extra)/float64(time.Millisecond), float64(len(sample))), nil
}
