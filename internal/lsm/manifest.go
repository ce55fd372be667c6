// The LSM manifest names the live tables. Like the WAL's CHECKPOINT it is
// replaced atomically (write-temp, fsync, rename, directory fsync), so a
// crash anywhere leaves either the old or the new table set installed. Any
// *.sst file the manifest does not name is an orphan from a crash between
// table rename and manifest install: open sets it aside with a .orphaned
// suffix (kept for forensics, never read) rather than guessing at its place
// in history.
package lsm

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/storage"
)

const manifestName = "LSMMANIFEST"

// tableMeta describes one live table.
type tableMeta struct {
	Name string `json:"name"`
	// Level 0 tables are raw flush output, overlapping and consulted
	// newest-first; level 1 is the compacted run.
	Level int `json:"level"`
	// Seq is the creation sequence: higher means newer, and for overlapping
	// keys the newer table's summary wins.
	Seq uint64 `json:"seq"`
	// Watermark is the highest LSN the table's content covers.
	Watermark uint64 `json:"watermark"`
	MinKey    string `json:"min_key"`
	MaxKey    string `json:"max_key"`
	Keys      uint64 `json:"keys"`
	Bytes     int64  `json:"bytes"`
}

type lsmManifest struct {
	Seq       uint64      `json:"seq"`        // manifest install counter
	NextTable uint64      `json:"next_table"` // next table creation sequence
	Watermark uint64      `json:"watermark"`  // highest LSN any flush has covered
	Tables    []tableMeta `json:"tables"`
	// TxnFloor is the store's txn-id floor as of the last flush
	// (storage.Tiered.SetTxnFloor).
	TxnFloor uint64 `json:"txn_floor,omitempty"`
}

// loadManifest reads the manifest; a missing file is an empty store.
func loadManifest(dir string) (lsmManifest, error) {
	var man lsmManifest
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		man.NextTable = 1
		return man, nil
	}
	if err != nil {
		return man, fmt.Errorf("lsm: %w", err)
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return man, fmt.Errorf("lsm: malformed manifest: %w", err)
	}
	if man.NextTable == 0 {
		man.NextTable = 1
	}
	return man, nil
}

// installManifest atomically replaces the manifest.
func installManifest(dir string, man lsmManifest) error {
	raw, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	path := filepath.Join(dir, manifestName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("lsm: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("lsm: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("lsm: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("lsm: %w", err)
	}
	return storage.SyncDir(dir)
}

// sweepOrphans removes temp files and quarantines *.sst files the manifest
// does not name: a crash between a table's rename and its manifest install
// leaves a complete but unaccounted table whose content the WAL still holds.
func sweepOrphans(dir string, man lsmManifest) (quarantined []string, err error) {
	live := make(map[string]bool, len(man.Tables))
	for _, t := range man.Tables {
		live[t.Name] = true
		live[bloomName(t.Name)] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, ".sst") && !live[name]:
			os.Rename(filepath.Join(dir, name), filepath.Join(dir, name+".orphaned"))
			quarantined = append(quarantined, name)
		case strings.HasSuffix(name, ".blm") && !live[name]:
			os.Remove(filepath.Join(dir, name))
		}
	}
	if len(quarantined) > 0 {
		if err := storage.SyncDir(dir); err != nil {
			return quarantined, err
		}
	}
	return quarantined, nil
}

// sortTables orders metas newest-first (Seq descending) — the lookup and
// replay order.
func sortTables(metas []tableMeta) {
	slices.SortFunc(metas, func(a, b tableMeta) int { return cmp.Compare(b.Seq, a.Seq) })
}
