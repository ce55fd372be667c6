package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// loadRecords reads run records from one file or from every run-*.json in a
// directory.
func loadRecords(path string) ([]record, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "run-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []record
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var one record
		if err := json.Unmarshal(raw, &one); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, one)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return out, nil
}

// series groups the untraced records' values by workload and metric.
func series(recs []record) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// verdict judges side b against side a for one metric. The change is the
// share of a's median by which b's median is worse (negative: better).
//
//	regression  b is worse than a by more than the bound
//	unresolved  not a regression, but the runs of either side spread (first
//	            to third quartile, as a share of the median) wider than the
//	            bound, so "no change" cannot be told from noise
//	ok          otherwise
func verdict(a, b []float64, better string, bound float64) (medA, medB, worse float64, v string) {
	medA, medB = median(a), median(b)
	if medA != 0 {
		worse = (medB - medA) / medA
		if better == "higher" {
			worse = -worse
		}
	}
	spread := func(xs []float64) float64 {
		m := median(xs)
		if len(xs) < 2 || m == 0 {
			return 0
		}
		q1, q3 := quartiles(xs)
		return (q3 - q1) / m
	}
	switch {
	case worse > bound:
		v = "regression"
	case spread(a) > bound || spread(b) > bound:
		v = "unresolved"
	default:
		v = "ok"
	}
	return medA, medB, worse, v
}

// compareMain prints one row per (workload, end-to-end metric) with both
// medians and a verdict, and returns 1 if any row is a regression.
func compareMain(root, pathA, pathB string) int {
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	recsA, err := loadRecords(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	recsB, err := loadRecords(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, b := series(recsA), series(recsB)
	status := 0
	fmt.Printf("%-22s %-18s %14s %14s %8s %6s %5s  %s\n", "workload", "metric", "a median", "b median", "worse", "bound", "runs", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-22s %-18s %14s %14s %8s %6.2f %5s  missing\n", w.Name, m.Name, "-", "-", "-", m.Bound, "-")
				status = 1
				continue
			}
			medA, medB, worse, v := verdict(va, vb, m.Better, m.Bound)
			if v == "regression" {
				status = 1
			}
			fmt.Printf("%-22s %-18s %14.4f %14.4f %+7.1f%% %6.2f %2d/%-2d  %s\n", w.Name, m.Name, medA, medB, 100*worse, m.Bound, len(va), len(vb), v)
		}
	}
	return status
}
