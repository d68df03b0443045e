package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"dive/internal/edge"
)

// outcome is what a seed must reproduce exactly: every bitstream the
// program emitted, and the accuracy and uplink figures derived from them.
type outcome struct {
	bitstreams [][]byte
	q          quality
}

func steadyOutcome(t *testing.T, seed int64) outcome {
	t.Helper()
	w := newSteadyWorkload(seed, 1)
	defer w.close()
	q := runSmallest(t, w)
	return outcome{flatten(w.bs), q}
}

func handoffOutcome(t *testing.T, seed int64) outcome {
	t.Helper()
	w := newHandoffWorkload(seed, 1)
	defer w.close()
	q := runSmallest(t, w)
	return outcome{flatten(w.bs), q}
}

// runSmallest runs a workload at its smallest size through set-up, the
// timed phase and the correctness gate.
func runSmallest(t *testing.T, w workload) quality {
	t.Helper()
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.timed(nil); err != nil {
		t.Fatal(err)
	}
	q, err := w.verify()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func flatten(bs []*bitstream) [][]byte {
	var out [][]byte
	for _, b := range bs {
		out = append(out, b.data...)
	}
	return out
}

func sameBitstreams(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestSeedDeterminism(t *testing.T) {
	for name, run := range map[string]func(*testing.T, int64) outcome{
		"edge-steady":  steadyOutcome,
		"edge-handoff": handoffOutcome,
	} {
		t.Run(name, func(t *testing.T) {
			a, b, c := run(t, 7), run(t, 7), run(t, 8)
			if !sameBitstreams(a.bitstreams, b.bitstreams) {
				t.Error("same seed gave different bitstreams")
			}
			if a.q != b.q {
				t.Errorf("same seed gave different map/bitrate: %+v vs %+v", a.q, b.q)
			}
			if a.q.mAP <= 0 || a.q.bitrateMbps <= 0 {
				t.Errorf("degenerate quality %+v", a.q)
			}
			if sameBitstreams(a.bitstreams, c.bitstreams) {
				t.Error("different seeds gave identical bitstreams")
			}
		})
	}
}

// TestAgentInputsDeterministic pins the agent workload's inputs: the same
// seed renders and encodes identical streams, a different seed does not.
func TestAgentInputsDeterministic(t *testing.T) {
	encodeSeed := func(seed int64) [][]byte {
		w := newAgentWorkload(seed, 1)
		if err := w.setup(nil); err != nil {
			t.Fatal(err)
		}
		var bs []*bitstream
		for _, s := range w.streams {
			b, err := encodeAll(s, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			bs = append(bs, b)
		}
		return flatten(bs)
	}
	a, b, c := encodeSeed(3), encodeSeed(3), encodeSeed(4)
	if !sameBitstreams(a, b) {
		t.Error("same seed gave different bitstreams")
	}
	if sameBitstreams(a, c) {
		t.Error("different seeds gave identical bitstreams")
	}
}

func TestServedRejectsChangedDetections(t *testing.T) {
	s := newServed([]int{1})
	first := []edge.WireDetection{{Class: 1, MaxX: 10, MaxY: 10, Score: 0.9}}
	if err := s.note(0, 0, first); err != nil {
		t.Fatal(err)
	}
	if err := s.note(0, 0, first); err != nil {
		t.Errorf("identical repeat rejected: %v", err)
	}
	moved := []edge.WireDetection{{Class: 1, MaxX: 11, MaxY: 10, Score: 0.9}}
	if err := s.note(0, 0, moved); err == nil {
		t.Error("changed detections accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		// statistics.quantiles(v, n=4) gives [q1, median, q3].
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2}, 1, 5},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics a
// run prints in step: same names, same units, same order.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		spec []entry
		code []struct{ name, unit string }
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.kind, len(c.spec), len(c.code))
			continue
		}
		for i, e := range c.spec {
			if e.Name != c.code[i].name || e.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					c.kind, i, e.Name, e.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
