package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// abRun is one benchmark run read back from an A/B results file, which
// holds the report line and the result line of each run in turn.
type abRun struct {
	comparable string
	metrics    map[string]float64
	correct    bool
}

func readABRuns(path string) ([]abRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []abRun
	var comparable string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var line struct {
			Env     map[string]any         `json:"env"`
			Correct *bool                  `json:"correct"`
			Metrics map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if line.Env != nil {
			comparable, _ = line.Env["comparable"].(string)
			continue
		}
		if line.Correct == nil {
			continue
		}
		r := abRun{comparable: comparable, correct: *line.Correct, metrics: map[string]float64{}}
		for k, v := range line.Metrics {
			r.metrics[k] = v.Value
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// abSummary compares the runs of a base and a head commit made in pairs by
// ab.sh, metric by metric: each side's median and quartiles, the pairs the
// head won, and a verdict by the rules of the benchmark — a gain needs 9 of
// 10 pairs and a median shift beyond the base's own quartile spread; a
// regression is a median worse by more than the metric's bound.
func abSummary(basePath, headPath string, w io.Writer) error {
	base, err := readABRuns(basePath)
	if err != nil {
		return err
	}
	head, err := readABRuns(headPath)
	if err != nil {
		return err
	}
	if len(base) == 0 || len(base) != len(head) {
		return fmt.Errorf("%d base runs and %d head runs, want equal and nonzero", len(base), len(head))
	}
	key := base[0].comparable
	for _, r := range append(append([]abRun(nil), base...), head...) {
		if r.comparable != key {
			return fmt.Errorf("not comparable: runs differ in environment (%q vs %q)", key, r.comparable)
		}
		if !r.correct {
			return fmt.Errorf("a run reported incorrect output; no comparison")
		}
	}
	raw, err := os.ReadFile(filepath.Join(os.Getenv("WLANBENCH_ROOT"), "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return err
	}
	fmt.Fprintf(w, "environment: %s\n", key)
	fmt.Fprintf(w, "%-18s %12s %21s %12s %21s %6s  %s\n", "metric", "base p50", "base q1..q3", "head p50", "head q1..q3", "wins", "verdict")
	for _, m := range bf.EndToEnd {
		var bs, hs []float64
		wins := 0
		for i := range base {
			b, h := base[i].metrics[m.Name], head[i].metrics[m.Name]
			bs, hs = append(bs, b), append(hs, h)
			if (m.Better == "lower" && h < b) || (m.Better == "higher" && h > b) {
				wins++
			}
		}
		bq1, bq2, bq3 := quartiles(bs)
		hq1, hq2, hq3 := quartiles(hs)
		change := (hq2 - bq2) / bq2
		if m.Better == "higher" {
			change = -change
		}
		verdict := "within bound"
		switch {
		case change > m.Bound:
			verdict = fmt.Sprintf("REGRESSION (%.1f%% worse, bound %.0f%%)", 100*change, 100*m.Bound)
		case 10*wins >= 9*len(base) && -change*bq2 > bq3-bq1:
			verdict = fmt.Sprintf("gain (%.1f%% better)", -100*change)
		}
		fmt.Fprintf(w, "%-18s %12.4g %10.4g..%-10.4g %12.4g %10.4g..%-10.4g %3d/%-2d  %s\n",
			m.Name, bq2, bq1, bq3, hq2, hq1, hq3, wins, len(base), verdict)
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile with the
// exclusive method of Python's statistics.quantiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		n := float64(len(s))
		pos := p * (n + 1)
		if pos <= 1 {
			return s[0]
		}
		if pos >= n {
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
