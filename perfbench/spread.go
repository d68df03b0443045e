package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// spreadMain runs one workload N times, each as its own process with its
// own seed, and prints per metric the median, the quartiles, the
// interquartile range as a share of the median (the steadiness figure the
// end-to-end bounds are checked against) and the max/min ratio.
func spreadMain(args []string) int {
	fs := flag.NewFlagSet("perfbench spread", flag.ExitOnError)
	name := fs.String("workload", "agent", "workload to run")
	runs := fs.Int("runs", 10, "number of runs")
	seed0 := fs.Int64("seed", 1, "seed of the first run; later runs count up")
	seconds := fs.Int("seconds", 15, "--seconds of each run")
	trace := fs.Int("trace", 0, "--trace of each run")
	fs.Parse(args)

	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < *runs; i++ {
		seed := *seed0 + int64(i)
		cmd := exec.Command(os.Args[0], "--workload", *name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "spread: run %d (seed %d): %v\n", i, seed, err)
			return 1
		}
		var rep report
		if err := json.Unmarshal(lastLine(out), &rep); err != nil || !rep.Correct {
			fmt.Fprintf(os.Stderr, "spread: run %d (seed %d): bad or incorrect result (%v)\n", i, seed, err)
			return 1
		}
		for k, m := range rep.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "spread: run %d/%d done (seed %d)\n", i+1, *runs, seed)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-30s %-7s %12s %12s %12s %9s %8s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "max/min")
	for _, k := range names {
		v := values[k]
		q1, q3 := quartiles(v)
		med := median(v)
		lo, hi := minMax(v)
		fmt.Printf("%-30s %-7s %12.5g %12.5g %12.5g %9.4f %8.4f\n", k, units[k], med, q1, q3, (q3-q1)/med, hi/lo)
	}
	return 0
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method); v needs at least 2 values.
func quartiles(v []float64) (q1, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		return d[0], d[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
