// Package vfs is the storage engine's filesystem seam: every OS call the
// durability layer makes (open, create, append, sync, rename, remove,
// directory fsync, advisory lock) goes through the FS interface, so tests
// can substitute an in-memory filesystem with power-cut semantics (Mem)
// or a fault injector (Fault) without touching a real disk. Production
// code uses OS, a thin pass-through to package os.
package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// File is one open file handle. *os.File satisfies it.
type File interface {
	io.Reader
	// ReadAt is a positioned read (io.ReaderAt): it does not move the
	// handle's read position, and returns io.EOF with n < len(p) when the
	// file currently ends inside the window — a later call sees bytes
	// appended since.
	io.ReaderAt
	io.Writer
	io.Closer
	// Sync flushes the file's content to stable storage.
	Sync() error
	// Stat reports the handle's file metadata (the engine reads Size).
	Stat() (fs.FileInfo, error)
}

// FS is the set of filesystem operations the storage engine performs.
// Implementations must return errors satisfying os.IsNotExist for missing
// paths (wrap fs.ErrNotExist) so callers can branch on absence.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// OpenRead opens an existing file for reading.
	OpenRead(path string) (File, error)
	// Create creates (or truncates) a file for writing.
	Create(path string) (File, error)
	// OpenAppend opens an existing file for appending.
	OpenAppend(path string) (File, error)
	// CreateExclusive creates a new file for writing, failing if it exists.
	CreateExclusive(path string) (File, error)
	// ReadFile reads a whole file.
	ReadFile(path string) ([]byte, error)
	// Rename atomically moves oldPath to newPath (files or directories),
	// replacing newPath if it exists.
	Rename(oldPath, newPath string) error
	// Remove deletes one file.
	Remove(path string) error
	// RemoveAll deletes a path and everything under it.
	RemoveAll(path string) error
	// Truncate cuts the named file to size bytes.
	Truncate(path string, size int64) error
	// Stat reports metadata for the path.
	Stat(path string) (fs.FileInfo, error)
	// Glob lists paths matching the pattern (filepath.Glob semantics).
	Glob(pattern string) ([]string, error)
	// SyncDir fsyncs a directory so renamed/created entries are durable.
	SyncDir(dir string) error
	// Lock takes an exclusive advisory lock on path, creating it if
	// missing. Closing the returned closer releases the lock. A lock
	// already held by a live owner fails with ErrLockHeld.
	Lock(path string) (io.Closer, error)
}

// ErrLockHeld is returned by Lock when another live owner holds the lock.
var ErrLockHeld = errors.New("vfs: lock held by another owner")

// OS is the production FS: a pass-through to package os with the storage
// engine's fixed permission bits (0o755 directories, 0o644 files).
type OS struct{}

// NewOS returns the production filesystem.
func NewOS() OS { return OS{} }

func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OS) OpenRead(path string) (File, error) { return os.Open(path) }

func (OS) Create(path string) (File, error) { return os.Create(path) }

func (OS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

func (OS) CreateExclusive(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
}

func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (OS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (OS) Remove(path string) error { return os.Remove(path) }

func (OS) RemoveAll(path string) error { return os.RemoveAll(path) }

func (OS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (OS) Stat(path string) (fs.FileInfo, error) { return os.Stat(path) }

func (OS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

func (OS) Lock(path string) (io.Closer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = f.Close() // the flock failure is the error worth reporting
		return nil, ErrLockHeld
	}
	return f, nil
}
