package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"marioh"
	"marioh/internal/core"
	"marioh/internal/graph"
	"marioh/internal/server"
)

// serveSLO is serve-mixed's fixed latency limit: a request counts toward
// slo_ok_ratio when it succeeded within this time of its due time.
const serveSLO = 400 * time.Millisecond

// scrapeEvery is how often the traced run samples the daemon's gauges.
const scrapeEvery = 100 * time.Millisecond

// daemon is an in-process mariohd on loopback with the run's models and
// one session per tenant.
type daemon struct {
	in       *serveInputs
	models   map[string]*marioh.Model
	trainS   float64
	base     string
	client   *http.Client
	sessions []string // server session ID per tenant
	stop     context.CancelFunc
	done     chan error // Serve's return value
}

// close drains the daemon and waits for it to exit.
func (d *daemon) close() error {
	d.stop()
	err := <-d.done
	d.client.CloseIdleConnections()
	return err
}

// bootServe is serve-mixed's set-up: generate the request schedule, train
// one model per dataset, boot mariohd, push the models and open and
// reconstruct one session per tenant.
func bootServe(ctx context.Context, cfg runConfig) (*daemon, error) {
	in, err := genServe(cfg.seed, cfg.window)
	if err != nil {
		return nil, err
	}
	d := &daemon{in: in, models: map[string]*marioh.Model{}}
	t0 := time.Now()
	for _, name := range serveDatasets {
		r, err := trainModel(ctx, in.sources[name])
		if err != nil {
			return nil, err
		}
		d.models[name] = r.Model()
	}
	d.trainS = time.Since(t0).Seconds()

	srv, err := server.New(ctx, server.Config{
		Addr: "127.0.0.1:0",
		Logf: func(string, ...any) {},
		// Generous per-tenant quotas: admission runs on every request
		// but never refuses at this load.
		TenantMaxJobs:     4 * cfg.nproc,
		TenantMaxSessions: 4,
	})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sctx, stop := context.WithCancel(ctx)
	d.stop, d.done = stop, make(chan error, 1)
	go func() { d.done <- srv.Serve(sctx, l) }()
	d.base = "http://" + l.Addr().String()
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.nproc + 1}}

	fail := func(err error) (*daemon, error) {
		_ = d.close() // the set-up error is the one to report
		return nil, err
	}
	for name, m := range d.models {
		var raw bytes.Buffer
		if err := marioh.SaveModel(&raw, m); err != nil {
			return fail(err)
		}
		if st, err := d.do(ctx, http.MethodPut, "/v1/models/"+name, "", raw.Bytes(), nil); err != nil || st != http.StatusCreated {
			return fail(fmt.Errorf("pushing model %s: status %d: %v", name, st, err))
		}
	}
	for t, s := range in.sessions {
		var info server.SessionInfo
		body, _ := json.Marshal(server.SessionRequest{Model: s.dataset, Graph: s.text, Options: server.OptionSpec{Seed: modelSeed}})
		if st, err := d.do(ctx, http.MethodPost, "/v1/sessions", tenantName(t), body, &info); err != nil || st != http.StatusCreated {
			return fail(fmt.Errorf("opening session for tenant %d: status %d: %v", t, st, err))
		}
		d.sessions = append(d.sessions, info.ID)
		body, _ = json.Marshal(server.SessionApplyRequest{})
		if st, err := d.do(ctx, http.MethodPost, "/v1/sessions/"+info.ID+"/apply", tenantName(t), body, nil); err != nil || st != http.StatusOK {
			return fail(fmt.Errorf("first apply for tenant %d: status %d: %v", t, st, err))
		}
	}
	return d, nil
}

func tenantName(t int) string { return fmt.Sprintf("tenant-%d", t) }

// do sends one request and decodes a 2xx JSON reply into out (when
// non-nil). A non-2xx status is returned without an error.
func (d *daemon) do(ctx context.Context, method, path, tenant string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(server.TenantHeader, tenant)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s reply: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// scrape reads the daemon's Prometheus text metrics into a map keyed by
// the sample's name and labels.
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumFamily sums every sample of a metric family.
func sumFamily(m map[string]float64, name string) float64 {
	s := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// served is one request's reply as the client saw it.
type served struct {
	outcome
	sent, done time.Time
	lag        time.Duration
	output     string // reconstruction text of a 200 reply
	dirty      int    // components a session apply recomputed
	rounds     int    // rounds the reconstruction took
}

// openLoop sends the schedule's requests at their due times from at most
// nproc connections. A request whose sender is still busy waits, and the
// wait counts in its latency, which runs from the due time. Applies of
// one tenant's session go out in their planned order.
func (d *daemon) openLoop(ctx context.Context, nproc int) ([]served, time.Time) {
	reqs := d.in.requests
	out := make([]served, len(reqs))
	turns := make([]*turnstile, serveTenants)
	for t := range turns {
		turns[t] = newTurnstile()
	}
	start := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r := reqs[i]
				due := start.Add(r.due)
				time.Sleep(time.Until(due))
				if r.apply {
					turns[r.tenant].wait(r.seq)
				}
				out[i] = d.send(ctx, r)
				if r.apply {
					turns[r.tenant].advance()
				}
				out[i].Latency, out[i].lag = openLoopTiming(due, out[i].sent, out[i].done)
			}
		}()
	}
	for i := range reqs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out, start
}

func (d *daemon) send(ctx context.Context, r serveRequest) served {
	var s served
	var body []byte
	var path string
	if r.apply {
		path = "/v1/sessions/" + d.sessions[r.tenant] + "/apply"
		body, _ = json.Marshal(server.SessionApplyRequest{Deltas: r.deltaText})
		var resp server.SessionApplyResponse
		s.sent = time.Now()
		s.Status, s.Err = d.do(ctx, http.MethodPost, path, tenantName(r.tenant), body, &resp)
		s.done = time.Now()
		s.output, s.dirty = resp.Result.Hypergraph, resp.Result.Dirty
		return s
	}
	path = "/v1/reconstruct"
	body, _ = json.Marshal(server.ReconstructRequest{Model: r.dataset, Target: r.text, Options: server.OptionSpec{Seed: modelSeed}})
	var resp server.ReconstructResponse
	s.sent = time.Now()
	s.Status, s.Err = d.do(ctx, http.MethodPost, path, tenantName(r.tenant), body, &resp)
	s.done = time.Now()
	s.output, s.rounds = resp.Result.Hypergraph, resp.Result.Rounds
	return s
}

// turnstile lets the holders of tickets 0, 1, 2, ... through in order.
type turnstile struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int
}

func newTurnstile() *turnstile {
	t := &turnstile{}
	t.cond = sync.NewCond(&t.mu)
	return t
}

func (t *turnstile) wait(ticket int) {
	t.mu.Lock()
	for t.next != ticket {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

func (t *turnstile) advance() {
	t.mu.Lock()
	t.next++
	t.mu.Unlock()
	t.cond.Broadcast()
}

// runServe is serve-mixed: an open loop of seeded Poisson arrivals from 4
// tenants against an in-process mariohd.
func runServe(ctx context.Context, cfg runConfig) (*report, error) {
	d, setupS, err := setupMedian(func() (*daemon, error) { return bootServe(ctx, cfg) },
		func(d *daemon) { _ = d.close() })
	if err != nil {
		return nil, err
	}
	rep := &report{shape: d.in.shape(cfg.window)}
	err = measureServe(ctx, cfg, d, rep, setupS)
	if cerr := d.close(); err == nil && cerr != nil {
		err = fmt.Errorf("daemon shutdown: %w", cerr)
	}
	return rep, err
}

func measureServe(ctx context.Context, cfg runConfig, d *daemon, rep *report, setupS float64) error {
	before, err := d.scrape(ctx)
	if err != nil {
		return err
	}
	var gauges struct {
		sync.Mutex
		queueMax, inflightMax float64
		scrapeMS              []float64
	}
	stopScrape := func() {}
	if cfg.trace {
		sctx, cancel := context.WithCancel(ctx)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(scrapeEvery)
			defer tick.Stop()
			for {
				select {
				case <-sctx.Done():
					return
				case <-tick.C:
				}
				t0 := time.Now()
				m, err := d.scrape(sctx)
				if err != nil {
					continue
				}
				gauges.Lock()
				gauges.scrapeMS = append(gauges.scrapeMS, ms(time.Since(t0)))
				gauges.queueMax = max(gauges.queueMax, m["marioh_queue_depth"])
				// The scrape itself is one of the in-flight requests.
				gauges.inflightMax = max(gauges.inflightMax, m["marioh_requests_inflight"]-1)
				gauges.Unlock()
			}
		}()
		stopScrape = func() { cancel(); wg.Wait() }
	}

	a0 := allocMB()
	rss := sampleRSS()
	res, start := d.openLoop(ctx, cfg.nproc)
	stopScrape()
	end := start
	for _, s := range res {
		if s.done.After(end) {
			end = s.done
		}
	}
	// From the first due time to the last reply: a backlog that outlasts
	// the schedule stretches the run and lowers the throughput.
	elapsed := end.Sub(start)
	allocPerOp := (allocMB() - a0) / float64(len(res))
	peakRSS := rss.peak()

	after, err := d.scrape(ctx)
	if err != nil {
		return err
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	dedupHits := delta("marioh_dedup_hits_total")
	chk, err := serveOracle(ctx, cfg, d, res)
	if err != nil {
		return err
	}
	ops := make([]outcome, len(res))
	var lags, sendLat, dirty, rounds []float64
	codes := map[int]int{}
	for i, s := range res {
		ops[i] = s.outcome
		lags = append(lags, ms(s.lag))
		sendLat = append(sendLat, ms(s.done.Sub(s.sent)))
		codes[s.Status]++
		switch {
		case !s.ok():
		case d.in.requests[i].apply:
			dirty = append(dirty, float64(s.dirty))
		default:
			rounds = append(rounds, float64(s.rounds))
		}
	}
	rep.shape = append(rep.shape, fmt.Sprintf("rounds per reconstruction p10/p25/p50/p75/p90/max: %s", quantileLine(rounds)))
	rep.note("status codes: %v; dedup hits: %g", codes, dedupHits)
	byClass := map[string][]float64{}
	for i, r := range d.in.requests {
		class := r.dataset
		if r.apply {
			class = "apply/" + d.in.sessions[r.tenant].dataset
		}
		if ops[i].ok() {
			byClass[class] = append(byClass[class], ms(ops[i].Latency))
		}
	}
	for _, class := range []string{"pschool", "hschool", "enron", "apply/pschool", "apply/hschool"} {
		if v := byClass[class]; len(v) > 0 {
			rep.note("latency ms %s (n=%d) p10/p25/p50/p75/p90/max: %s", class, len(v), quantileLine(v))
		}
	}
	if !cfg.trace {
		closeOut(rep, ops, elapsed, serveSLO, lags, fmt.Sprintf("open loop, %d connections", cfg.nproc))
		// The schedule repeats no request, so a dedup hit is a fault.
		rep.correct = rep.correct && dedupHits == 0
		var jac, mjac []float64
		for i, r := range d.in.requests {
			if r.apply || !ops[i].ok() {
				continue
			}
			h, err := marioh.ReadHypergraph(strings.NewReader(res[i].output))
			if err != nil {
				return err
			}
			jac = append(jac, marioh.Jaccard(r.truth, h))
			mjac = append(mjac, marioh.MultiJaccard(r.truth, h))
		}
		rep.add("setup_s", "s", setupS)
		rep.add("jaccard", "ratio", mean(jac))
		rep.add("multi_jaccard", "ratio", mean(mjac))
		rep.add("alloc_mb_per_op", "MB", allocPerOp)
		rep.add("peak_rss_mb", "MB", peakRSS)
		return nil
	}

	rep.tr = chk.tr
	rep.settle(ops)
	rep.correct = rep.correct && dedupHits == 0
	compute := delta(`marioh_stage_seconds_total{stage="filter"}`) + delta(`marioh_stage_seconds_total{stage="search"}`) +
		delta(`marioh_stage_seconds_total{stage="session_apply"}`)
	n := float64(len(ops))
	computeMS := 1000 * compute / n
	rep.note("traced: %d requests; replayed output byte-identical to the served bytes on %d of them", len(ops), len(ops)-rep.failed)
	replays := float64(max(chk.replays, 1))
	addCoreLayers(rep, chk.tr, replays)
	rep.add("core.parallel_speedup", "x", ratioOr0(chk.serialMS, chk.plainMS))
	rep.add("core.train_s", "s", d.trainS)
	rep.add("marioh.ms_per_op", "ms", chk.plainMS/replays)
	rep.add("incremental.dirty_components_per_apply", "count", mean(dirty))
	rep.add("incremental.dirty_edge_share", "ratio", 0)
	rep.add("incremental.overhead_ms_per_apply", "ms", 0)
	addFlatLayers(rep, "durability")
	rep.add("server.compute_ms_per_req", "ms", computeMS)
	rep.add("server.overhead_ms_per_req", "ms", mean(sendLat)-computeMS)
	rep.add("server.queue_depth_max", "count", gauges.queueMax)
	rep.add("server.inflight_max", "count", gauges.inflightMax)
	rep.add("admission.rejected_ratio", "ratio", (sumFamily(after, "marioh_admission_rejected_total")-sumFamily(before, "marioh_admission_rejected_total"))/n)
	rep.add("admission.dedup_hits", "count", dedupHits)
	rep.add("bench.sched_lag_tail_ms", "ms", tailOf(lags).Value)
	rep.add("bench.trace_overhead_ratio", "ratio", sum(gauges.scrapeMS)/ms(elapsed))
	return nil
}

// serveCheck is what the oracle learned besides pass/fail: in traced
// runs, the external round loop's spans over the reconstructions and the
// library's parallel and serial times on the same targets.
type serveCheck struct {
	tr                *tracer
	replays           int
	plainMS, serialMS float64
}

// serveOracle checks every served output after the open loop and marks
// mismatches. A reconstruction must project back to its input and equal
// the serial library pipeline's bytes on the same target — in traced runs
// also the external round loop's replay, which is where the per-layer
// spans come from. A session apply must equal the serial pipeline's
// from-scratch reconstruction of the session's graph after that batch.
func serveOracle(ctx context.Context, cfg runConfig, d *daemon, res []served) (*serveCheck, error) {
	reqs := d.in.requests
	serial := map[string]*marioh.Reconstructor{}
	plain := map[string]*marioh.Reconstructor{}
	for name, m := range d.models {
		var err error
		if serial[name], err = serialReconstructor(m); err != nil {
			return nil, err
		}
		if plain[name], err = marioh.New(marioh.WithModel(m), marioh.WithSeed(modelSeed)); err != nil {
			return nil, err
		}
	}
	// Session applies: replay each tenant's batches in order.
	var states []*graph.Graph
	var stateReq []int
	trackers := make([]*graph.Tracker, serveTenants)
	for t, s := range d.in.sessions {
		trackers[t] = graph.NewTracker(s.base.Clone())
	}
	for i, r := range reqs {
		if r.apply {
			applyOps(trackers[r.tenant], r.ops)
			states = append(states, trackers[r.tenant].Graph().Clone())
			stateReq = append(stateReq, i)
		}
	}
	errs := make([]error, len(states))
	forEach(len(states), cfg.nproc, func(j int) {
		i := stateReq[j]
		ref, err := serial[d.in.sessions[reqs[i].tenant].dataset].Reconstruct(ctx, states[j])
		if err != nil {
			errs[j] = err
			return
		}
		if string(hgBytes(ref.Hypergraph)) != res[i].output || !projectsTo(ref.Hypergraph, states[j]) {
			res[i].Mismatch = true
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serial reference: %w", err)
		}
	}

	var recIdx []int
	for i, r := range reqs {
		if !r.apply {
			recIdx = append(recIdx, i)
		}
	}
	check := func(i int, ref []byte, target *graph.Graph, h *marioh.Hypergraph) {
		if string(ref) != res[i].output || !projectsTo(h, target) {
			res[i].Mismatch = true
		}
	}
	if !cfg.trace {
		errs = make([]error, len(recIdx))
		forEach(len(recIdx), cfg.nproc, func(j int) {
			r := reqs[recIdx[j]]
			ref, err := serial[r.dataset].Reconstruct(ctx, r.target)
			if err != nil {
				errs[j] = err
				return
			}
			check(recIdx[j], hgBytes(ref.Hypergraph), r.target, ref.Hypergraph)
		})
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("serial reference: %w", err)
			}
		}
		return &serveCheck{}, nil
	}

	// Traced: one target at a time, so the spans do not overlap.
	sc := &serveCheck{tr: newTracer()}
	for _, i := range recIdx {
		r := reqs[i]
		m := d.models[r.dataset]
		s := sc.tr.start(i, 0, "replay")
		got, err := replay(ctx, r.target, m, core.Options{Seed: modelSeed}, nil, sc.tr, i, s)
		sc.tr.stop(s)
		if err != nil {
			return nil, err
		}
		sc.replays++
		t0 := time.Now()
		pres, err := plain[r.dataset].Reconstruct(ctx, r.target)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		sres, err := serial[r.dataset].Reconstruct(ctx, r.target)
		if err != nil {
			return nil, err
		}
		sc.plainMS += ms(t1.Sub(t0))
		sc.serialMS += ms(time.Since(t1))
		ref := hgBytes(got)
		check(i, ref, r.target, got)
		if !bytes.Equal(ref, hgBytes(pres.Hypergraph)) || !bytes.Equal(ref, hgBytes(sres.Hypergraph)) {
			res[i].Mismatch = true
		}
	}
	return sc, nil
}
