//go:build linux

// Log force (linux): allocate ahead with fallocate, force with fdatasync.
//
// A write that lands inside space fallocate already added to the file
// changes no inode field a reader needs, so the fdatasync after it flushes
// data blocks only. Growing the file by the write itself, as an O_APPEND
// log does, makes every force commit the new size through the filesystem
// journal, where it queues behind every other file's metadata.
package storage

import (
	"os"
	"syscall"
)

// reserve extends f's allocation (and size) by n zero bytes from off. A
// filesystem without fallocate is not an error: the append then grows the
// file itself, as it does in force_fallback.go.
func reserve(f *os.File, off, n int64) error {
	for {
		switch err := syscall.Fallocate(int(f.Fd()), 0, off, n); err {
		case nil, syscall.EOPNOTSUPP, syscall.ENOSYS:
			return nil
		case syscall.EINTR: // retry
		default:
			return &os.PathError{Op: "fallocate", Path: f.Name(), Err: err}
		}
	}
}

// datasync forces f's written bytes, and the size needed to read them back,
// to stable storage.
func datasync(f *os.File) error {
	for {
		switch err := syscall.Fdatasync(int(f.Fd())); err {
		case nil:
			return nil
		case syscall.EINTR: // retry
		default:
			return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
		}
	}
}
