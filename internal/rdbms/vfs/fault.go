package vfs

import (
	"errors"
	"io"
	"io/fs"
	"sync"
	"syscall"
)

// ErrPowerCut is the error every operation returns once a Fault's
// simulated power cut has fired (Close excepted — releasing a dead
// process's handles always "works").
var ErrPowerCut = errors.New("vfs: simulated power cut")

// ENOSPC is a ready-made disk-full error for BreakWrites/FailOp, shaped
// like the real thing (a *fs.PathError wrapping syscall.ENOSPC).
//
//scilint:ignore testonlyapi fault injector: the crash matrices and degraded-mode tests drive it
var ENOSPC error = &fs.PathError{Op: "write", Path: "fault", Err: syscall.ENOSPC}

// ErrTornWrite is returned by a write torn by TearWrite, after half the
// payload has been applied.
var ErrTornWrite = errors.New("vfs: torn write")

// Fault wraps an FS and injects failures. Every FS and File operation is
// counted; Sync, SyncDir and Rename additionally count as durability
// "boundaries". Injection modes:
//
//   - FailOp(n, err): single-shot — the op with 1-based index n (counted
//     from the wrapper's creation) fails with err, everything else passes;
//   - BreakWrites(err): latching — every write-class op (Write, Sync,
//     Create*, Rename, Remove*, Truncate, MkdirAll, SyncDir) fails with
//     err until ClearWrites, simulating a full or read-only disk;
//   - TearWrite(): the next File.Write applies only the first half of its
//     payload, then fails — a torn record;
//   - CrashAtBoundary(k): the k-th boundary op fails with ErrPowerCut
//     WITHOUT executing, and every later op (Close excepted) fails too —
//     combine with Mem.PowerCut to model losing power at that instant.
type Fault struct {
	mu         sync.Mutex
	fs         FS
	ops        int
	boundaries int
	crashAt    int
	crashed    bool
	failAt     int
	failErr    error
	writeErr   error
	tearNext   bool
}

// NewFault wraps fsys with the fault injector (no faults armed).
func NewFault(fsys FS) *Fault { return &Fault{fs: fsys} }

// CrashAtBoundary arms a power cut at the k-th (1-based) sync/rename
// boundary; 0 disarms.
//
//scilint:ignore testonlyapi fault injector: the crash matrices and degraded-mode tests drive it
func (f *Fault) CrashAtBoundary(k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = k
}

// FailOp arms a single-shot failure of the n-th (1-based, from creation)
// operation.
//
//scilint:ignore testonlyapi fault injector: the crash matrices and degraded-mode tests drive it
func (f *Fault) FailOp(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAt, f.failErr = n, err
}

// BreakWrites latches a failure onto every write-class operation until
// ClearWrites.
//
//scilint:ignore testonlyapi fault injector: the crash matrices and degraded-mode tests drive it
func (f *Fault) BreakWrites(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeErr = err
}

// ClearWrites lifts a BreakWrites latch.
//
//scilint:ignore testonlyapi fault injector: the crash matrices and degraded-mode tests drive it
func (f *Fault) ClearWrites() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeErr = nil
}

// TearWrite makes the next File.Write apply half its payload then fail.
//
//scilint:ignore testonlyapi fault injector: the crash matrices and degraded-mode tests drive it
func (f *Fault) TearWrite() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tearNext = true
}

// Ops reports the operations counted so far.
//
//scilint:ignore testonlyapi fault injector: the crash matrices and degraded-mode tests drive it
func (f *Fault) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Boundaries reports the sync/rename boundaries counted so far — run a
// workload once with no faults armed to size a crash matrix.
//
//scilint:ignore testonlyapi fault injector: the crash matrices and degraded-mode tests drive it
func (f *Fault) Boundaries() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.boundaries
}

// Crashed reports whether an armed power cut has fired.
//
//scilint:ignore testonlyapi fault injector: the crash matrices and degraded-mode tests drive it
func (f *Fault) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// gate runs the bookkeeping for one op and returns the injected error, if
// any. boundary marks Sync/SyncDir/Rename; write marks write-class ops.
func (f *Fault) gate(boundary, write bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrPowerCut
	}
	f.ops++
	if boundary {
		f.boundaries++
		if f.crashAt > 0 && f.boundaries == f.crashAt {
			f.crashed = true
			return ErrPowerCut
		}
	}
	if f.failAt > 0 && f.ops == f.failAt {
		f.failAt = 0
		return f.failErr
	}
	if write && f.writeErr != nil {
		return f.writeErr
	}
	return nil
}

func (f *Fault) MkdirAll(dir string) error {
	if err := f.gate(false, true); err != nil {
		return err
	}
	return f.fs.MkdirAll(dir)
}

func (f *Fault) OpenRead(path string) (File, error) {
	if err := f.gate(false, false); err != nil {
		return nil, err
	}
	h, err := f.fs.OpenRead(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, h: h}, nil
}

func (f *Fault) Create(path string) (File, error) {
	if err := f.gate(false, true); err != nil {
		return nil, err
	}
	h, err := f.fs.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, h: h}, nil
}

func (f *Fault) OpenAppend(path string) (File, error) {
	if err := f.gate(false, true); err != nil {
		return nil, err
	}
	h, err := f.fs.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, h: h}, nil
}

func (f *Fault) CreateExclusive(path string) (File, error) {
	if err := f.gate(false, true); err != nil {
		return nil, err
	}
	h, err := f.fs.CreateExclusive(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, h: h}, nil
}

func (f *Fault) ReadFile(path string) ([]byte, error) {
	if err := f.gate(false, false); err != nil {
		return nil, err
	}
	return f.fs.ReadFile(path)
}

func (f *Fault) Rename(oldPath, newPath string) error {
	if err := f.gate(true, true); err != nil {
		return err
	}
	return f.fs.Rename(oldPath, newPath)
}

func (f *Fault) Remove(path string) error {
	if err := f.gate(false, true); err != nil {
		return err
	}
	return f.fs.Remove(path)
}

func (f *Fault) RemoveAll(path string) error {
	if err := f.gate(false, true); err != nil {
		return err
	}
	return f.fs.RemoveAll(path)
}

func (f *Fault) Truncate(path string, size int64) error {
	if err := f.gate(false, true); err != nil {
		return err
	}
	return f.fs.Truncate(path, size)
}

func (f *Fault) Stat(path string) (fs.FileInfo, error) {
	if err := f.gate(false, false); err != nil {
		return nil, err
	}
	return f.fs.Stat(path)
}

func (f *Fault) Glob(pattern string) ([]string, error) {
	if err := f.gate(false, false); err != nil {
		return nil, err
	}
	return f.fs.Glob(pattern)
}

func (f *Fault) SyncDir(dir string) error {
	if err := f.gate(true, true); err != nil {
		return err
	}
	return f.fs.SyncDir(dir)
}

func (f *Fault) Lock(path string) (io.Closer, error) {
	if err := f.gate(false, false); err != nil {
		return nil, err
	}
	return f.fs.Lock(path)
}

type faultFile struct {
	f *Fault
	h File
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if err := ff.f.gate(false, false); err != nil {
		return 0, err
	}
	return ff.h.Read(p)
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := ff.f.gate(false, false); err != nil {
		return 0, err
	}
	return ff.h.ReadAt(p, off)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.f.mu.Lock()
	tear := ff.f.tearNext
	ff.f.tearNext = false
	ff.f.mu.Unlock()
	if err := ff.f.gate(false, true); err != nil {
		return 0, err
	}
	if tear {
		n, _ := ff.h.Write(p[:len(p)/2])
		return n, ErrTornWrite
	}
	return ff.h.Write(p)
}

func (ff *faultFile) Sync() error {
	if err := ff.f.gate(true, true); err != nil {
		return err
	}
	return ff.h.Sync()
}

func (ff *faultFile) Stat() (fs.FileInfo, error) {
	if err := ff.f.gate(false, false); err != nil {
		return nil, err
	}
	return ff.h.Stat()
}

// Close always reaches the wrapped handle: a crashed process's handles
// are released by the kernel, and tests must be able to Abandon a
// database after a simulated power cut.
func (ff *faultFile) Close() error { return ff.h.Close() }
