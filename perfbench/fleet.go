package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/jobs"
)

const (
	// fleetWorkers joined workers each compute one shard at a time: two
	// compute goroutines, one per CPU.
	fleetWorkers = 2
	// fleetPoll is the workers' idle lease-poll pacing. The 500ms default
	// of jedserve -worker-poll would make every op mostly a sleep.
	fleetPoll = 5 * time.Millisecond
	// fleetShards splits each campaign into this many leases.
	fleetShards = 8
	// fleetWarmup ops run untimed first: past the coordinator engine's
	// 64-job retention cap, so every timed op also pays the eviction.
	fleetWarmup = 70
	// fleetSetups: a fleet starts in tens of milliseconds, so its set-up
	// median needs more repetitions than the seconds-long ones.
	fleetSetups = 11
)

// fleetSpec is the campaign every campaign_fleet op submits: list
// schedulers only, so each of the 8 shards computes in a few milliseconds
// and the dispatch path carries a large share of the op.
func fleetSpec(o options) jobs.CampaignSpec {
	spec := jobs.CampaignSpec{
		Algos:        []string{"heft", "minmin"},
		Shapes:       []string{"serial", "wide", "long", "random", "forkjoin"},
		DAGSizes:     []int{20, 40},
		ClusterSizes: []int{16, 32},
		Replicates:   2,
		Seed:         o.seed,
		Workers:      1,
	}
	if o.smoke {
		spec.Shapes = spec.Shapes[:2]
		spec.DAGSizes = []int{20}
	}
	return spec
}

// fleetRig is one jedserve -fleet process rebuilt in-process: the API
// server with a fleet manager on a loopback listener, and the worker loops
// joined to it.
type fleetRig struct {
	srv     *api.Server
	manager *fleet.Manager
	hs      *http.Server
	base    string
	client  *http.Client
	stop    context.CancelFunc
	workers sync.WaitGroup
}

func startFleet(ft *fleetTracer) (*fleetRig, error) {
	srv := api.NewServer(api.NewStore())
	m := fleet.NewManager(fleet.Config{})
	srv.SetFleet(m, fleetWorkers)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	rig := &fleetRig{srv: srv, manager: m, base: "http://" + ln.Addr().String(),
		client: newClient()}
	var h http.Handler = srv.Handler()
	if ft != nil {
		h = ft.handler(h)
	}
	rig.hs = &http.Server{Handler: h}
	go rig.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	ctx, cancel := context.WithCancel(context.Background())
	rig.stop = cancel
	for i := 0; i < fleetWorkers; i++ {
		cfg := fleet.WorkerConfig{
			Coordinator: rig.base,
			Name:        fmt.Sprintf("bench-w%d", i+1),
			Poll:        fleetPoll,
			HTTP:        newClient(),
		}
		if ft != nil {
			cfg.Run = ft.run
		}
		rig.workers.Add(1)
		go func() {
			defer rig.workers.Done()
			fleet.RunWorker(ctx, cfg) //nolint:errcheck // ends with ctx.Err() on close
		}()
	}
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	defer wcancel()
	if err := m.WaitWorkers(wctx, fleetWorkers); err != nil {
		rig.close()
		return nil, fmt.Errorf("waiting for fleet workers: %w", err)
	}
	return rig, nil
}

// close stops the workers (they deregister), then the server, and waits.
func (r *fleetRig) close() {
	r.stop()
	r.workers.Wait()
	r.client.CloseIdleConnections()
	r.hs.Close()
	r.srv.Close()
}

// fleetRef is the reference table: the same spec run by
// campaign.RunContext in this process.
func fleetRef(o options, spec jobs.CampaignSpec) (string, error) {
	cfg, _, err := spec.Resolve()
	if err != nil {
		return "", err
	}
	res, err := campaign.RunContext(context.Background(), cfg, campaign.RunOptions{})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := res.WriteTable(&b); err != nil {
		return "", err
	}
	ref := b.String()
	if o.corrupt {
		bs := []byte(ref)
		bs[len(bs)/2] ^= 0x20
		ref = string(bs)
	}
	return ref, nil
}

// fleetOp is one campaign: submit, long-poll until done, fetch the result.
type fleetOp struct {
	submit, result time.Duration
	start, done    time.Time // op start; the long-poll that saw "done" returned
	table          string
}

func (r *fleetRig) campaign(body []byte) (fleetOp, error) {
	var op fleetOp
	op.start = time.Now()
	resp, err := r.client.Post(r.base+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return op, err
	}
	loc := resp.Header.Get("Location")
	err = drain(resp, http.StatusAccepted, nil)
	op.submit = time.Since(op.start)
	if err != nil {
		return op, fmt.Errorf("submit: %w", err)
	}
	for {
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		resp, err := r.client.Get(r.base + loc + "?wait=30s")
		if err != nil {
			return op, err
		}
		if err := drain(resp, http.StatusOK, &st); err != nil {
			return op, fmt.Errorf("wait: %w", err)
		}
		op.done = time.Now()
		if st.State == string(jobs.Done) {
			break
		}
		if jobs.State(st.State).Terminal() {
			return op, fmt.Errorf("campaign ended %s: %s", st.State, st.Error)
		}
	}
	t0 := time.Now()
	resp, err = r.client.Get(r.base + loc + "/result")
	if err != nil {
		return op, err
	}
	var res struct {
		Table string `json:"table"`
	}
	err = drain(resp, http.StatusOK, &res)
	op.result = time.Since(t0)
	op.table = res.Table
	if err != nil {
		return op, fmt.Errorf("result: %w", err)
	}
	return op, nil
}

// newClient returns a loopback HTTP client with its own connection pool,
// large enough that keep-alive connections are reused rather than redialed.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}, Timeout: time.Minute}
}

// drain checks the status, decodes the JSON body into out (if non-nil),
// and closes the body.
func drain(resp *http.Response, want int, out any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d (want %d): %s", resp.StatusCode, want, bytes.TrimSpace(body))
	}
	if out != nil {
		return json.Unmarshal(body, out)
	}
	return nil
}

func runCampaignFleet(o options) (*report, error) {
	rep := newReport()
	spec := fleetSpec(o)
	body, err := json.Marshal(struct {
		jobs.CampaignSpec
		Shards int `json:"shards"`
	}{spec, fleetShards})
	if err != nil {
		return nil, err
	}
	var ft *fleetTracer
	if o.trace {
		ft = newFleetTracer()
	}
	// Set-up: start the server and its workers, and build the reference.
	// Every repetition but the last is torn down again.
	var rig *fleetRig
	var ref string
	var st setupTimer
	for i := 0; i < setupReps(o, fleetSetups); i++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		if rig, err = startFleet(ft); err != nil {
			return nil, err
		}
		if ref, err = fleetRef(o, spec); err != nil {
			rig.close()
			return nil, err
		}
		st.add(time.Since(t0))
	}
	defer rig.close()
	st.report(rep)

	warm := fleetWarmup
	if o.smoke {
		warm = 2
	}
	for i := 0; i < warm; i++ {
		op, err := rig.campaign(body)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if op.table != ref {
			rep.fail("campaign_fleet: warm-up result table differs from campaign.RunContext")
		}
	}

	if !o.trace {
		rep.metrics["setup_heap_mb"] = liveHeapMB()
	}
	loop := newOpLoop(o)
	var traced series
	before := rig.manager.Stats()
	for n := 0; loop.more() || (o.trace && len(traced) == 0); n++ {
		tracing := o.trace && n%2 == 1
		if tracing {
			ft.beginOp(n + 1)
		}
		op, err := rig.campaign(body)
		end := time.Now()
		if tracing {
			ft.endOp(op, end)
		}
		rep.attempted++
		if err != nil {
			rep.fail("campaign_fleet: %v", err)
			continue
		}
		if op.table != ref {
			rep.fail("campaign_fleet: result table differs from campaign.RunContext")
		}
		if tracing {
			traced.addDur(end.Sub(op.start))
			continue
		}
		loop.done(end.Sub(op.start), end)
	}
	after := rig.manager.Stats()
	if !o.trace {
		loop.endToEnd(rep)
		return rep, nil
	}
	ft.report(rep)
	// Every shard is leased once and completed once: a lease that expired
	// and was stolen, or a result that arrived twice, is a failed check.
	shards := after.ShardsCompleted - before.ShardsCompleted
	if shards > 0 {
		rep.metrics["fleet.leases_per_shard"] = float64(after.LeasesGranted-before.LeasesGranted) / float64(shards)
	}
	rep.metrics["fleet.steals"] = float64(after.ShardsStolen - before.ShardsStolen)
	rep.metrics["fleet.duplicates"] = float64(after.DuplicatesDiscarded - before.DuplicatesDiscarded)
	if l := rep.metrics["fleet.leases_per_shard"]; l != 1 {
		rep.fail("campaign_fleet: %v leases per shard over %d shards, want 1", l, shards)
	}
	if s, d := rep.metrics["fleet.steals"], rep.metrics["fleet.duplicates"]; s > 0 || d > 0 {
		rep.fail("campaign_fleet: %v steals and %v duplicate completions, want none", s, d)
	}
	rep.metrics["trace_overhead"] = overhead(traced, loop.ops)
	rep.notes["traced_ops"] = float64(len(traced))
	rep.notes["untraced_ops"] = float64(len(loop.ops))
	return rep, ft.tr.write(o.spans)
}

// fleetTracer times the fleet from outside: a handler wrapper around the
// server's worker-protocol routes and a Runner wrapper around
// fleet.RunAssignment. It records only while an op is traced.
type fleetTracer struct {
	tr *tracer
	on atomic.Bool

	mu         sync.Mutex
	op, opSpan int
	opStart    time.Time
	firstLease time.Time // end of the op's first lease that granted a shard
	lastDone   time.Time // end of the op's last completion
	polls      int       // lease requests during traced ops
	ops        int
	compute    time.Duration // shard compute over traced ops
	served     time.Duration // granted leases and completions, same shards
}

func newFleetTracer() *fleetTracer { return &fleetTracer{tr: newTracer()} }

func (f *fleetTracer) beginOp(op int) {
	f.mu.Lock()
	f.op, f.opSpan, f.opStart = op, f.tr.id(), time.Now()
	f.firstLease, f.lastDone = time.Time{}, time.Time{}
	f.mu.Unlock()
	f.on.Store(true)
}

func (f *fleetTracer) endOp(op fleetOp, end time.Time) {
	f.on.Store(false)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	f.tr.record(f.opSpan, 0, f.op, "campaign.op", f.opStart, end)
	f.tr.add(f.opSpan, f.op, "api.campaign_submit", op.start, op.start.Add(op.submit))
	f.tr.add(f.opSpan, f.op, "api.result", end.Add(-op.result), end)
	// From the submit to the first shard a worker leased, and from the
	// last completion to the long-poll that reported the campaign done.
	if !f.firstLease.IsZero() {
		f.tr.add(f.opSpan, f.op, "coord.first_lease", f.opStart, f.firstLease)
	}
	if !f.lastDone.IsZero() && !op.done.IsZero() {
		f.tr.add(f.opSpan, f.op, "jobs.done_wake", f.lastDone, op.done)
	}
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// handler wraps the server: lease and completion requests are timed.
func (f *fleetTracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := ""
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/api/v1/workers/") {
			switch {
			case strings.HasSuffix(r.URL.Path, "/lease"):
				route = "fleet.http.lease"
			case strings.HasSuffix(r.URL.Path, "/complete"):
				route = "fleet.http.complete"
			}
		}
		if route == "" || !f.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		t1 := time.Now()
		f.mu.Lock()
		defer f.mu.Unlock()
		f.tr.add(f.opSpan, f.op, route, t0, t1)
		switch route {
		case "fleet.http.lease":
			f.polls++
			if sw.status == http.StatusOK {
				f.served += t1.Sub(t0)
				if f.firstLease.IsZero() {
					f.firstLease = t1
				}
			}
		case "fleet.http.complete":
			f.served += t1.Sub(t0)
			f.lastDone = t1
		}
	})
}

// run wraps fleet.RunAssignment, the worker's default Runner.
func (f *fleetTracer) run(ctx context.Context, a *fleet.Assignment) (campaign.Header, []campaign.Cell, error) {
	if !f.on.Load() {
		return fleet.RunAssignment(ctx, a)
	}
	t0 := time.Now()
	h, cells, err := fleet.RunAssignment(ctx, a)
	t1 := time.Now()
	f.mu.Lock()
	f.tr.add(f.opSpan, f.op, "fleet.shard_compute", t0, t1)
	f.compute += t1.Sub(t0)
	f.mu.Unlock()
	return h, cells, err
}

func (f *fleetTracer) report(rep *report) {
	f.mu.Lock()
	defer f.mu.Unlock()
	durs := f.tr.durations()
	rep.metrics["fleet.shard_compute_ms"] = durs["fleet.shard_compute"].median()
	rep.metrics["fleet.http.lease_ms"] = durs["fleet.http.lease"].median()
	rep.metrics["fleet.http.complete_ms"] = durs["fleet.http.complete"].median()
	// The share of a shard's cycle (granted lease, compute, completion)
	// that is compute.
	if cycle := f.compute + f.served; cycle > 0 {
		rep.metrics["fleet.compute_share"] = float64(f.compute) / float64(cycle)
	}
	if f.ops > 0 {
		rep.metrics["fleet.lease_polls_per_op"] = float64(f.polls) / float64(f.ops)
	}
	rep.metrics["coord.first_lease_ms"] = durs["coord.first_lease"].median()
	rep.metrics["api.campaign_submit_ms"] = durs["api.campaign_submit"].median()
	rep.metrics["jobs.done_wake_ms"] = durs["jobs.done_wake"].median()
	rep.metrics["api.result_ms"] = durs["api.result"].median()
}
