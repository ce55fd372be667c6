package metrics

import (
	"encoding/json"
	"fmt"
	"os"
)

// TableJSON is the serialized shape of one experiment table in a
// BENCH_*.json trajectory file. Rows carry the already-formatted cell
// strings (durations rounded, floats trimmed) so a diff between two
// commits' files reads the same as a diff between their plain-text tables.
// cmd/soupsbench writes its E23 scoreboard in this shape.
type TableJSON struct {
	Experiment string     `json:"experiment"`
	Title      string     `json:"title"`
	Columns    []string   `json:"columns"`
	Rows       [][]string `json:"rows"`
}

// TableAsJSON snapshots a Table under an experiment label.
func TableAsJSON(experiment string, t *Table) TableJSON {
	return TableJSON{
		Experiment: experiment,
		Title:      t.Title,
		Columns:    t.Columns,
		Rows:       t.Rows(),
	}
}

// WriteTablesJSON writes the collected tables to path as indented JSON with
// a trailing newline, the trajectory-file convention.
func WriteTablesJSON(path string, tables []TableJSON) error {
	raw, err := json.MarshalIndent(tables, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal tables: %w", err)
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
