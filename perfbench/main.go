// Command perfbench is the repository benchmark. It drives the two paths
// Jedule exists for — running a scheduling campaign and viewing a schedule —
// as three closed-loop workloads, each with a single client that sends its
// next operation only after the previous one completed:
//
//	campaign_cpa    the paper's CPA/MCPA/MCPA2 factorial, in process; one op is one cell
//	campaign_fleet  a coordinated campaign through an in-process fleet; one op is one campaign
//	view_browse     create, render, re-render, pan and delete against the REST API
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload campaign_cpa --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics, timings scaled to a reference host speed measured
// by a fixed probe (host.go); with --trace 1 a separate traced run reports the
// per-layer metrics, timed from this benchmark's own code around calls into
// each module's public functions, and writes its spans to
// .bench_build/spans-<workload>-seed<n>.jsonl. Metric definitions and the
// workload each one should move live in catalog.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke (set by the benchmark's test) shrinks inputs, set-up
	// repetitions and warm-up, and stops after smokeOps measured ops, so
	// the test runs every workload in seconds.
	smoke bool
	// corrupt flips one byte of the reference output every op is checked
	// against; the benchmark's test sets it to prove the checks catch a
	// wrong result.
	corrupt bool
	// spans is the file the traced run writes its spans to ("" = none).
	spans string
}

// report is what one workload run measured.
type report struct {
	attempted, failed int
	// metrics holds end-to-end metrics (untraced run) or per-layer metrics
	// (traced run), keyed by catalog name.
	metrics map[string]float64
	// notes are extra human-readable figures printed before the result.
	notes map[string]float64
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, notes: map[string]float64{}}
}

// fail counts one failed output check and says why on standard error.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

type workloadFunc func(o options) (*report, error)

var workloads = map[string]workloadFunc{
	"campaign_cpa":   runCampaignCPA,
	"campaign_fleet": runCampaignFleet,
	"view_browse":    runViewBrowse,
}

// resultJSON is the last line of standard output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured time per run, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	o.trace = trace == 1
	if o.trace {
		o.spans = fmt.Sprintf(".bench_build/spans-%s-seed%d.jsonl", o.workload, o.seed)
	}
	return o, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload and prints its figures, the result JSON last.
func run(o options, stdout io.Writer) error {
	// Two vCPUs is the machine this benchmark is sized for; pinning
	// GOMAXPROCS keeps the runtime's own parallelism (GC workers, idle
	// marking) the same on bigger hosts.
	runtime.GOMAXPROCS(2)
	initProbe()
	start := time.Now()
	rep, err := workloads[o.workload](o)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok && !o.trace {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", o.workload, d.Name)
		}
		// A per-layer metric a workload does not reach stays 0: the layer
		// did no work there, which is the "flat elsewhere" prediction.
		res.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	fmt.Fprintf(stdout, "# %s seed=%d trace=%v ops=%d failed=%d wall=%.1fs\n",
		o.workload, o.seed, o.trace, rep.attempted, rep.failed, time.Since(start).Seconds())
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-32s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	noteNames := make([]string, 0, len(rep.notes))
	for n := range rep.notes {
		noteNames = append(noteNames, n)
	}
	sort.Strings(noteNames)
	for _, n := range noteNames {
		fmt.Fprintf(stdout, "%-32s %14.4f (note)\n", n, rep.notes[n])
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}
