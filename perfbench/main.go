// Command perfbench is the DiVE end-to-end benchmark: one process runs one
// workload (agent, edge-steady or edge-handoff) on inputs generated from a
// seed, does a fixed amount of work, checks the outputs and prints its
// metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload edge-steady --seed 1 --seconds 30 --trace 0
//	perfbench spread --workload edge-steady --runs 10 --seconds 30
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it runs the workload untraced and then traced (an obs.Recorder
// attached to every layer) and reports per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"dive/internal/obs"
)

// processStart anchors setup_s: set-up runs from process start to the first
// timed op.
var processStart = time.Now()

// result is one timed phase of a workload.
type result struct {
	attempted, failed int
	ops               *tally // completed unit ops, in completion order
	ph                phase
}

// quality is a workload's accuracy and uplink cost, computed after timing.
type quality struct {
	mAP, bitrateMbps float64
}

// workload is one benchmark workload. setup builds the inputs and warms the
// program (rec, in traced runs, also records the set-up layers); timed runs
// one fixed-work phase (traced when rec is non-nil); verify applies the
// correctness gate and scores accuracy; layers reads the traced run's
// per-layer metrics.
type workload interface {
	setup(rec *obs.Recorder) error
	timed(rec *obs.Recorder) (*result, error)
	verify() (quality, error)
	layers(rec *obs.Recorder, m map[string]float64)
	close()
}

var workloads = map[string]func(seed int64, seconds int) workload{
	"agent":        func(s int64, n int) workload { return newAgentWorkload(s, n) },
	"edge-steady":  func(s int64, n int) workload { return newSteadyWorkload(s, n) },
	"edge-handoff": func(s int64, n int) workload { return newHandoffWorkload(s, n) },
}

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median, the first one measured from process start.
const setupRepeats = 3

func main() {
	runtime.GOMAXPROCS(runtime.NumCPU())
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		os.Exit(spreadMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "agent, edge-steady or edge-handoff")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 15, "sizes the fixed work of a run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	fs.Parse(os.Args[1:])
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	out, err := run(*name, mk, *seed, *seconds, *trace == 1)
	if out == nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: correctness gate: %v\n", err)
	}
	meta, _ := json.Marshal(map[string]any{"run_meta": out.meta})
	fmt.Println(string(meta))
	line, _ := json.Marshal(out.report)
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	meta   map[string]any
	report report
}

// run executes one benchmark run. A nil output means the run could not be
// carried out at all; an output with an error failed the correctness gate.
func run(name string, mk func(int64, int) workload, seed int64, seconds int, trace bool) (*output, error) {
	var rec *obs.Recorder
	if trace {
		rec = obs.NewRecorder(1 << 14)
	}
	// A traced run does the same fixed work as an untraced one, split into
	// an untraced and a traced half.
	size := seconds
	if trace {
		size = (seconds + 1) / 2
	}
	// Set-up times are scaled to the reference core by the host speed
	// sampled before, during and after each set-up (refcore.go).
	ref := newRefCore()
	w := mk(seed, size)
	defer w.close()
	var raw float64
	speed, err := ref.during(func() error {
		err := w.setup(rec)
		raw = time.Since(processStart).Seconds()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rawSetups := []float64{raw}
	setups := []float64{raw * speed}

	res, gateErr := w.timed(nil)
	if res == nil {
		return nil, gateErr
	}
	heapMB := liveHeapMB()
	var traced *result
	if trace && gateErr == nil {
		traced, gateErr = w.timed(rec)
		if traced == nil {
			return nil, gateErr
		}
	}
	q, err := w.verify()
	if gateErr == nil {
		gateErr = err
	}
	if !trace {
		for i := 1; i < setupRepeats; i++ {
			again := mk(seed, seconds)
			var d float64
			speed, err := ref.during(func() error {
				t0 := time.Now()
				err := again.setup(nil)
				d = time.Since(t0).Seconds()
				return err
			})
			again.close()
			if err != nil {
				return nil, fmt.Errorf("repeated set-up: %w", err)
			}
			rawSetups = append(rawSetups, d)
			setups = append(setups, d*speed)
		}
	}

	out := &output{report: report{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}}
	mx := out.report.Metrics
	tput := res.ops.rate()
	if trace {
		m := map[string]float64{}
		w.layers(rec, m)
		for k, v := range runtimeLayers(traced) {
			m[k] = v
		}
		m["trace_overhead_frac"] = 1 - traced.ops.rate()/tput
		for _, l := range perLayer {
			mx[l.name] = metric{m[l.name], l.unit}
		}
		out.report.Attempted += traced.attempted
		out.report.Failed += traced.failed
	} else {
		lat := res.ops.latency()
		m := map[string]float64{
			"setup_s":              median(setups),
			"throughput_per_cpu_s": tput,
			"latency_p50_ms":       lat.q(0.5),
			"latency_p90_ms":       lat.q(0.9),
			"map":                  q.mAP,
			"bitrate_mbps":         q.bitrateMbps,
			"heap_live_mb":         heapMB,
		}
		for _, l := range endToEnd {
			mx[l.name] = metric{m[l.name], l.unit}
		}
	}
	out.report.Correct = gateErr == nil && out.report.Failed == 0

	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	phases := []*result{res}
	if traced != nil {
		phases = append(phases, traced)
	}
	var steal float64
	var gc uint32
	samples := map[string]int{}
	for i, p := range phases {
		steal += p.ph.stealS
		gc += p.ph.gcCycles
		samples[[]string{"untraced", "traced"}[i]] = p.ops.blocks() * p.ops.every
	}
	out.meta = map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
		"go_version": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "git_commit": commit,
		"steal_s": steal, "gc_cycles": gc,
		"latency_samples": samples,
		"attempted":       out.report.Attempted,
		"succeeded":       out.report.Attempted - out.report.Failed,
		"failed":          out.report.Failed,
		"wall_s":          res.ph.wallS, "cpu_s": res.ph.cpuS, "cpu_sys_s": res.ph.sysS,
		"setup_s_each": setups,
		"host_speed":   res.ops.hostSpeed(),
		"raw": map[string]float64{
			"throughput_per_cpu_s": opsPerCPUSecond(res),
			"latency_p50_ms":       res.ops.lat.q(0.5),
			"latency_p90_ms":       res.ops.lat.q(0.9),
			"setup_s":              median(rawSetups),
		},
		"map": q.mAP, "bitrate_mbps": q.bitrateMbps,
	}
	return out, gateErr
}

// opsPerCPUSecond is a phase's completed unit ops per process CPU second.
func opsPerCPUSecond(r *result) float64 { return float64(len(r.ops.lat)) / r.ph.cpuS }

// runtimeLayers are the runtime and process costs of the traced phase.
func runtimeLayers(r *result) map[string]float64 {
	ops := float64(r.attempted)
	return map[string]float64{
		"allocs_per_op":      float64(r.ph.mallocs) / ops,
		"alloc_bytes_per_op": float64(r.ph.allocBytes) / ops,
		"gc_cycles_per_kop":  float64(r.ph.gcCycles) * 1000 / ops,
		"cpu_busy_frac":      r.ph.cpuS / (r.ph.wallS * float64(runtime.NumCPU())),
		"steal_s":            r.ph.stealS,
	}
}

// endToEnd lists every end-to-end metric an untraced run reports.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_cpu_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"map", "mAP"},
	{"bitrate_mbps", "Mbit/s"},
	{"heap_live_mb", "MB"},
}

// perLayer lists every per-layer metric a traced run reports, with its unit.
// A metric of a layer the workload never exercises reads 0.
var perLayer = []struct{ name, unit string }{
	{"agent.analyze_ms_p50", "ms"},
	{"agent.analyze_ms_p90", "ms"},
	{"agent.emit_ms_p50", "ms"},
	{"agent.motion_ms_p50", "ms"},
	{"agent.rotation_ms_p50", "ms"},
	{"agent.foreground_ms_p50", "ms"},
	{"agent.encode_ms_p50", "ms"},
	{"agent.codec_motion_ms_p50", "ms"},
	{"agent.codec_dct_ms_p50", "ms"},
	{"agent.codec_entropy_ms_p50", "ms"},
	{"agent.rc_trials_per_frame", "count"},
	{"agent.rc_useful_ratio", "ratio"},
	{"agent.link_ms_p50", "ms"},
	{"edge.server_ms_p50", "ms"},
	{"edge.server_ms_p90", "ms"},
	{"edge.wire_ms_p50", "ms"},
	{"edge.decode_ms_p50", "ms"},
	{"edge.detect_ms_p50", "ms"},
	{"handoff.hello_ack_ms_p50", "ms"},
	{"handoff.hello_ack_ms_p90", "ms"},
	{"handoff.render_ms_per_clip_s", "ms/s"},
	{"handoff.first_result_ms_p50", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"gc_cycles_per_kop", "count"},
	{"cpu_busy_frac", "ratio"},
	{"steal_s", "s"},
	{"trace_overhead_frac", "ratio"},
}
