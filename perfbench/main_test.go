package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeRun runs one workload for a few ops on tiny inputs and decodes the
// result line.
func smokeRun(t *testing.T, o options) resultJSON {
	t.Helper()
	o.seed, o.seconds, o.smoke = 1, 60, true
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultJSON
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return res
}

// mayBeZero names the per-layer counts that must read 0 on a healthy run.
var mayBeZero = map[string]bool{"fleet.steals": true, "fleet.duplicates": true}

// TestSmoke runs every workload untraced and traced, and checks that every
// metric of the catalog prints with its unit, that every output check
// passed, and that no per-layer metric reads 0 on the workload it belongs to.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			name, defs := w+"/untraced", endToEnd
			if trace {
				name, defs = w+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				o := options{workload: w, trace: trace}
				if trace {
					o.spans = filepath.Join(t.TempDir(), "spans.jsonl")
				}
				res := smokeRun(t, o)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					case trace && d.On == w && !mayBeZero[d.Name] && m.Value <= 0:
						t.Errorf("per-layer metric %s = %v on its own workload, want > 0", d.Name, m.Value)
					}
				}
				if trace {
					if fi, err := os.Stat(o.spans); err != nil || fi.Size() == 0 {
						t.Errorf("traced run wrote no spans (%v)", err)
					}
				}
			})
		}
	}
}

// TestCorruptReference checks that a wrong reference output is caught and
// counted as a failed op.
func TestCorruptReference(t *testing.T) {
	for _, w := range []string{wCPA, wFleet} {
		t.Run(w, func(t *testing.T) {
			res := smokeRun(t, options{workload: w, corrupt: true})
			if res.Correct || res.Failed < 1 {
				t.Errorf("correct=%v failed=%d, want a failed op", res.Correct, res.Failed)
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// lists exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, want %s", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalog", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d] = %+v, catalog has %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestParseFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", wCPA, "--trace", "2"},
		{"--workload", wCPA, "--seconds", "0"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	o, err := parseFlags([]string{"--workload", wView, "--seed", "7", "--seconds", "3", "--trace", "1"})
	if err != nil || !o.trace || o.seed != 7 || o.seconds != 3 || o.spans == "" {
		t.Errorf("parseFlags = %+v, %v", o, err)
	}
}

// TestHostScaling checks the direction of the host scaling: on a host that
// ran the probe twice as slow as the reference, ops took half as long and
// ran twice as fast at the reference speed.
func TestHostScaling(t *testing.T) {
	start := time.Now()
	l := &opLoop{start: start, end: start.Add(2 * time.Second)}
	for i := 0; i < 10; i++ {
		l.ops.add(100)
	}
	for i, k := range probeKernels {
		l.host.times[i] = series{2 * k.ref}
	}
	r := newReport()
	l.endToEnd(r)
	for name, want := range map[string]float64{"op_p50_ms": 50, "op_p90_ms": 50, "ops_per_s": 10} {
		if got := r.metrics[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if f0 := (&hostProbe{}).factor(); f0 != 1 {
		t.Errorf("factor with no samples = %v, want 1", f0)
	}
}
