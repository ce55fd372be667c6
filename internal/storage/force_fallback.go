//go:build !linux

// Log force (fallback): no reservation, and a full fsync. Each append
// grows the segment itself, so a crash leaves at most an incomplete frame
// at the end of the file — the shape recovery has always handled.
package storage

import "os"

// reserve is a no-op: the append extends the file.
func reserve(*os.File, int64, int64) error { return nil }

// datasync forces f to stable storage.
func datasync(f *os.File) error { return f.Sync() }
