package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/jedxml"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/workload"
)

const (
	// viewTasks sizes the uploaded trace: 50k tasks is a 29 MB jedule
	// document, under the server's 64 MiB body cap.
	viewTasks = 50_000
	// viewW, viewH is the server's default render size; every PNG must
	// decode to it.
	viewW, viewH = 1000, 600
	// viewRenderWorkers bounds each rasterization to one goroutine: the
	// client, the server and the collector then share the two CPUs without
	// a render fanning out across both.
	viewRenderWorkers = 1
	// viewCacheMB bounds the render cache so the warm-up fills it and the
	// timed ops run against a full cache that evicts.
	viewCacheMB = 2
	// viewWarmup ops run untimed first.
	viewWarmup = 40
)

// viewRig is one jedserve process rebuilt in-process with the big trace
// uploaded as a session.
type viewRig struct {
	srv    *api.Server
	hs     *http.Server
	base   string
	client *http.Client
	big    string // session ID of the uploaded trace
	extent core.Extent
	upload time.Duration
	stages stageProbe
}

func (r *viewRig) close() {
	r.client.CloseIdleConnections()
	r.hs.Close()
	r.srv.Close()
}

// startView starts a server, uploads the trace document and renders its
// full LOD view once — what a user waits for before browsing.
func startView(doc []byte) (*viewRig, error) {
	srv := api.NewServer(api.NewStore())
	srv.SetRenderWorkers(viewRenderWorkers)
	srv.SetRenderCacheBytes(viewCacheMB << 20)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	r := &viewRig{srv: srv, base: "http://" + ln.Addr().String(), client: newClient(),
		stages: newStageProbe(srv.Metrics())}
	r.hs = &http.Server{Handler: srv.Handler()}
	go r.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close

	t0 := time.Now()
	resp, err := r.client.Post(r.base+"/api/v1/sessions?name=trace", "application/xml", bytes.NewReader(doc))
	if err != nil {
		r.close()
		return nil, err
	}
	var info struct {
		ID string `json:"id"`
	}
	err = drain(resp, http.StatusCreated, &info)
	r.upload = time.Since(t0)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("upload: %w", err)
	}
	r.big = info.ID
	sess, ok := srv.Store().Get(r.big)
	if !ok {
		r.close()
		return nil, fmt.Errorf("uploaded session %s not in the store", r.big)
	}
	r.extent = sess.Schedule().Extent()
	res, err := r.get("/api/v1/sessions/" + r.big + "/render?lod=true")
	if err != nil {
		r.close()
		return nil, fmt.Errorf("full view: %w", err)
	}
	if err := res.checkPNG("miss"); err != nil {
		r.close()
		return nil, fmt.Errorf("full view: %w", err)
	}
	return r, nil
}

// rendered is one render response.
type rendered struct {
	status  int
	cache   string
	body    []byte
	latency time.Duration
	stages  []time.Duration // index-aligned with renderStages
}

func (r *viewRig) get(path string) (rendered, error) {
	before := r.stages.sums()
	t0 := time.Now()
	resp, err := r.client.Get(r.base + path)
	if err != nil {
		return rendered{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return rendered{}, err
	}
	x := rendered{status: resp.StatusCode, cache: resp.Header.Get("X-Render-Cache"),
		body: body, latency: time.Since(t0)}
	for i, v := range r.stages.sums() {
		x.stages = append(x.stages, time.Duration((v-before[i])*float64(time.Second)))
	}
	return x, nil
}

// checkPNG checks a render: 200, the expected cache disposition, and a PNG
// of the requested size.
func (x rendered) checkPNG(cache string) error {
	if x.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", x.status, bytes.TrimSpace(x.body))
	}
	if x.cache != cache {
		return fmt.Errorf("X-Render-Cache %q, want %q", x.cache, cache)
	}
	cfg, err := png.DecodeConfig(bytes.NewReader(x.body))
	if err != nil {
		return err
	}
	if cfg.Width != viewW || cfg.Height != viewH {
		return fmt.Errorf("PNG is %dx%d, want %dx%d", cfg.Width, cfg.Height, viewW, viewH)
	}
	return nil
}

// renderStages are the stages the server times in every render miss.
var renderStages = []string{"index", "layout", "lod", "raster", "encode"}

// stageProbe reads the server's render-stage histograms — the timings its
// Server-Timing header reports, at full precision instead of the header's
// 10µs rounding. With one client, the change in each histogram's sum
// across a request is that request's stage time.
type stageProbe []*obs.Histogram

func newStageProbe(reg *obs.Registry) stageProbe {
	p := make(stageProbe, len(renderStages))
	for i, name := range renderStages {
		p[i] = reg.Histogram("jed_render_stage_seconds",
			"Render stage wall time in seconds, by stage.", obs.DefBuckets(), "stage", name)
	}
	return p
}

func (p stageProbe) sums() []float64 {
	out := make([]float64, len(p))
	for i, h := range p {
		out[i] = h.Sum()
	}
	return out
}

// viewOp is one browsing step: the latencies of its five requests.
type viewOp struct {
	create, first, hit, pan, del time.Duration
	start                        time.Time
	req                          api.CreateRequest
	firstR, panR                 rendered
	lodTasks                     int64
}

// createRequest is op i's generated session: HEFT on a 100-node DAG and 32
// hosts, with a per-op DAG seed.
func createRequest(seed int64, i int) api.CreateRequest {
	return api.CreateRequest{
		Algo:     "heft",
		DAG:      &api.DAGSpec{Nodes: 100, Seed: seed*1_000_003 + int64(i) + 1},
		Platform: &api.PlatformSpec{Hosts: 32},
	}
}

// panWindow is op i's fresh window of the big trace: between 1/16 and 1/4
// of its extent, anywhere inside it.
func panWindow(rng *rand.Rand, e core.Extent) string {
	span := e.Max - e.Min
	w := span * (1.0/16 + rng.Float64()*(1.0/4-1.0/16))
	lo := e.Min + rng.Float64()*(span-w)
	return fmt.Sprintf("%.6f,%.6f", lo, lo+w)
}

// browse runs one op and checks every response; lod counts the tasks the
// server folded into LOD bands.
func (r *viewRig) browse(req api.CreateRequest, window string, lod *obs.Counter) (viewOp, error) {
	op := viewOp{req: req, start: time.Now()}
	body, err := json.Marshal(req)
	if err != nil {
		return op, err
	}
	resp, err := r.client.Post(r.base+"/api/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return op, err
	}
	var info struct {
		ID string `json:"id"`
	}
	err = drain(resp, http.StatusCreated, &info)
	op.create = time.Since(op.start)
	if err != nil {
		return op, fmt.Errorf("create: %w", err)
	}
	small := "/api/v1/sessions/" + info.ID + "/render"
	if op.firstR, err = r.get(small); err != nil {
		return op, err
	}
	op.first = op.firstR.latency
	if err := op.firstR.checkPNG("miss"); err != nil {
		return op, fmt.Errorf("first render: %w", err)
	}
	hit, err := r.get(small)
	if err != nil {
		return op, err
	}
	op.hit = hit.latency
	if err := hit.checkPNG("hit"); err != nil {
		return op, fmt.Errorf("cached render: %w", err)
	}
	if !bytes.Equal(hit.body, op.firstR.body) {
		return op, fmt.Errorf("cached render body differs from the first")
	}
	before := lod.Value()
	if op.panR, err = r.get("/api/v1/sessions/" + r.big + "/render?lod=true&window=" + window); err != nil {
		return op, err
	}
	op.lodTasks = lod.Value() - before
	op.pan = op.panR.latency
	if err := op.panR.checkPNG("miss"); err != nil {
		return op, fmt.Errorf("pan: %w", err)
	}
	dreq, err := http.NewRequest(http.MethodDelete, r.base+"/api/v1/sessions/"+info.ID, nil)
	if err != nil {
		return op, err
	}
	t0 := time.Now()
	resp, err = r.client.Do(dreq)
	if err != nil {
		return op, err
	}
	err = drain(resp, http.StatusNoContent, nil)
	op.del = time.Since(t0)
	if err != nil {
		return op, fmt.Errorf("delete: %w", err)
	}
	return op, nil
}

// traceDocument is the jedule document the set-up uploads: a synthetic
// cluster trace generated from the seed.
func traceDocument(o options) ([]byte, error) {
	n := viewTasks
	if o.smoke {
		// Still large enough that a pan folds tasks into LOD bands.
		n = 20_000
	}
	gen := workload.DefaultGenerateConfig(n)
	gen.Seed = o.seed
	var buf bytes.Buffer
	if err := jedxml.Write(&buf, workload.GenerateSchedule(gen)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func runViewBrowse(o options) (*report, error) {
	rep := newReport()
	doc, err := traceDocument(o)
	if err != nil {
		return nil, err
	}

	// Set-up: every repetition but the last is torn down again.
	var rig *viewRig
	var st setupTimer
	var uploads series
	for i := 0; i < setupReps(o, 3); i++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		if rig, err = startView(doc); err != nil {
			return nil, err
		}
		st.add(time.Since(t0))
		uploads.add(rig.upload.Seconds())
	}
	defer rig.close()
	st.report(rep)

	var vt *viewTrace
	if o.trace {
		if vt, err = newViewTrace(o, rig, doc, uploads.median()); err != nil {
			return nil, err
		}
	}
	doc = nil // the server holds the parsed trace; the document is garbage

	lod := rig.srv.Metrics().Counter("jed_render_lod_tasks_aggregated_total", "")
	rng := rand.New(rand.NewSource(o.seed))
	warm := viewWarmup
	if o.smoke {
		warm = 2
	}
	for i := 0; i < warm; i++ {
		if _, err := rig.browse(createRequest(o.seed, -1-i), panWindow(rng, rig.extent), lod); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if !o.trace {
		rep.metrics["setup_heap_mb"] = liveHeapMB()
	}

	evictions := rig.srv.RenderCacheStats().Evictions
	loop := newOpLoop(o)
	var firsts, pans, traced series
	for i := 0; loop.more() || (o.trace && len(traced) == 0); i++ {
		before := rig.srv.RenderCacheStats()
		op, err := rig.browse(createRequest(o.seed, i), panWindow(rng, rig.extent), lod)
		end := time.Now()
		rep.attempted++
		if err != nil {
			rep.fail("view_browse: %v", err)
			continue
		}
		if o.trace && i%2 == 1 {
			traced.addDur(end.Sub(op.start))
			after := rig.srv.RenderCacheStats()
			vt.hits += after.Hits - before.Hits
			vt.renders += after.Hits - before.Hits + after.Misses - before.Misses
			vt.op(i+1, op)
			continue
		}
		loop.done(end.Sub(op.start), end)
		firsts.addDur(op.create + op.first)
		pans.addDur(op.pan)
	}
	rep.notes["render_cache_evictions"] = float64(rig.srv.RenderCacheStats().Evictions - evictions)
	rep.notes["first_view_p50_ms"] = firsts.median()
	rep.notes["pan_p50_ms"] = pans.median()
	if !o.trace {
		loop.endToEnd(rep)
		return rep, nil
	}
	rep.metrics["first_view_p50_ms"] = firsts.median()
	rep.metrics["pan_p50_ms"] = pans.median()
	if err := vt.direct(); err != nil {
		return nil, err
	}
	vt.report(rep)
	rep.metrics["trace_overhead"] = overhead(traced, loop.ops)
	rep.notes["traced_ops"] = float64(len(traced))
	rep.notes["untraced_ops"] = float64(len(loop.ops))
	return rep, vt.tr.write(o.spans)
}

// lodPans is how many traced pans render.lod_tasks_per_pan averages: a
// fixed count, so two traced runs of one seed average the same windows.
const lodPans = 32

// viewTrace records the traced ops' spans, taken from each response's
// latency and the server's render-stage timings, plus direct calls into
// the layers the server runs on the same inputs.
type viewTrace struct {
	tr       *tracer
	big      *core.Schedule
	renders  int64 // render-cache lookups during traced ops
	hits     int64
	lodTasks []int64
	reqs     []api.CreateRequest // traced ops' create requests
	upload   float64             // median set-up upload, in seconds
}

// newViewTrace times the set-up layers directly: jedxml.Read on the
// uploaded document and render.BuildIndex on the parsed trace.
func newViewTrace(o options, rig *viewRig, doc []byte, upload float64) (*viewTrace, error) {
	sess, _ := rig.srv.Store().Get(rig.big)
	vt := &viewTrace{tr: newTracer(), big: sess.Schedule(), upload: upload}
	for i := 0; i < setupReps(o, 3); i++ {
		t0 := time.Now()
		if _, err := jedxml.Read(bytes.NewReader(doc)); err != nil {
			return nil, err
		}
		vt.tr.add(0, 0, "jedxml.read", t0, time.Now())
		t0 = time.Now()
		render.BuildIndex(vt.big)
		vt.tr.add(0, 0, "render.build_index", t0, time.Now())
	}
	return vt, nil
}

// op records one traced op's spans and runs the direct layer calls.
func (vt *viewTrace) op(id int, op viewOp) {
	tr := vt.tr
	root := tr.id()
	t := op.start
	step := func(name string, d time.Duration) (int, time.Time) {
		sid := tr.add(root, id, name, t, t.Add(d))
		start := t
		t = t.Add(d)
		return sid, start
	}
	step("api.create", op.create)
	first, fStart := step("api.render.first", op.first)
	vt.stageSpans(first, id, "render.first.", fStart, op.firstR)
	step("api.render.hit", op.hit)
	pan, pStart := step("api.render.pan", op.pan)
	vt.stageSpans(pan, id, "render.pan.", pStart, op.panR)
	step("api.delete", op.del)
	tr.record(root, 0, id, "view.op", op.start, t)
	if len(vt.lodTasks) < lodPans {
		vt.lodTasks = append(vt.lodTasks, op.lodTasks)
	}
	vt.reqs = append(vt.reqs, op.req)
}

// direct times, after the op loop so their garbage does not land on a
// timed op, the layers the server runs behind the ops: the create request's
// build (generate, schedule, trace) of each traced op, and the validation
// render.Encode runs on the big trace before any stage starts its timer.
func (vt *viewTrace) direct() error {
	for i, req := range vt.reqs {
		t0 := time.Now()
		if _, err := req.Build(); err != nil {
			return err
		}
		vt.tr.add(0, 0, "api.create_build", t0, time.Now())
		if i >= lodPans {
			continue
		}
		t0 = time.Now()
		if err := vt.big.Validate(); err != nil {
			return err
		}
		vt.tr.add(0, 0, "core.validate", t0, time.Now())
	}
	return nil
}

// stageSpans lays the server's render stages end to end inside the request's
// span; what they do not cover is the request's self (unstaged) time.
func (vt *viewTrace) stageSpans(parent, op int, prefix string, start time.Time, x rendered) {
	t := start
	for i, name := range renderStages {
		d := x.stages[i]
		vt.tr.add(parent, op, prefix+name, t, t.Add(d))
		t = t.Add(d)
	}
}

func (vt *viewTrace) report(rep *report) {
	durs, self := vt.tr.durations(), vt.tr.selfTimes()
	for _, name := range []string{"layout", "raster", "encode"} {
		rep.metrics["render.first."+name+"_ms"] = durs["render.first."+name].median()
	}
	rep.metrics["render.first.unstaged_ms"] = self["api.render.first"].median()
	for _, name := range []string{"index", "lod", "raster", "encode"} {
		rep.metrics["render.pan."+name+"_ms"] = durs["render.pan."+name].median()
	}
	rep.metrics["render.pan.unstaged_ms"] = self["api.render.pan"].median()
	rep.metrics["api.create_ms"] = durs["api.create"].median()
	rep.metrics["api.create_build_ms"] = durs["api.create_build"].median()
	rep.metrics["api.cache_hit_ms"] = durs["api.render.hit"].median()
	rep.metrics["api.delete_ms"] = durs["api.delete"].median()
	if vt.renders > 0 {
		rep.metrics["api.cache_hit_ratio"] = float64(vt.hits) / float64(vt.renders)
	}
	rep.metrics["core.validate_ms"] = durs["core.validate"].median()
	if len(vt.lodTasks) > 0 {
		var sum int64
		for _, n := range vt.lodTasks {
			sum += n
		}
		rep.metrics["render.lod_tasks_per_pan"] = float64(sum) / float64(len(vt.lodTasks))
	}
	rep.metrics["jedxml.read_s"] = durs["jedxml.read"].median() / 1e3
	rep.metrics["render.build_index_s"] = durs["render.build_index"].median() / 1e3
	rep.metrics["api.upload_s"] = vt.upload
}
