package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Workload names are the contract later issues refer to.
const (
	wlMemMixed     = "http_mem_mixed"
	wlDurableWrite = "http_durable_write"
	wlColdRead     = "http_tiered_coldread"
	wlKernelEvents = "kernel_events"
)

var workloadNames = []string{wlMemMixed, wlDurableWrite, wlColdRead, wlKernelEvents}

// benchSpec is BENCHMARK.json, the one list of the metrics the command
// emits: report takes names and units from it and compare the bounds. A
// per-layer metric a workload does not exercise reads 0 in its traced run:
// that is the bypass prediction made checkable.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}
