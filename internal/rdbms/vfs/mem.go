package vfs

import (
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Mem is an in-memory FS with explicit durability semantics, built for
// crash testing:
//
//   - every file (inode) carries volatile content (what reads see) and
//     durable content (what survives PowerCut);
//   - File.Sync makes the inode's content durable AND commits the file's
//     own directory entry (create or rename), mirroring the friendly
//     data-journalling behaviour real engines rely on;
//   - SyncDir commits the directory's entry list: after it, exactly the
//     entries currently present survive a power cut (with whatever
//     content each inode has made durable);
//   - file-level Create/Remove/Rename stay volatile until one of the two
//     syncs above commits them; a power cut reverts them;
//   - directory operations (MkdirAll, RemoveAll, directory Rename) are
//     durable immediately — the engine under test brackets them with
//     directory syncs anyway, and deterministic semantics beat modelling
//     every metadata-journalling variant.
//
// PowerCut discards everything not durable, after which the Mem can be
// re-opened like a disk that lost power.
type Mem struct {
	mu    sync.Mutex
	files map[string]*memInode // volatile namespace
	durNS map[string]*memInode // durable namespace (survives PowerCut)
	dirs  map[string]bool
	locks map[string]bool
}

type memInode struct {
	data    []byte // volatile content
	durable []byte // content as of the last Sync
	synced  bool
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *Mem {
	return &Mem{
		files: make(map[string]*memInode),
		durNS: make(map[string]*memInode),
		dirs:  make(map[string]bool),
		locks: make(map[string]bool),
	}
}

func pathErr(op, path string, err error) error {
	return &fs.PathError{Op: op, Path: path, Err: err}
}

// rooted reports whether the path's parent directories exist (paths at the
// tree root — "." or "/" parents — are always rooted).
func (m *Mem) rooted(path string) bool {
	dir := filepath.Dir(path)
	return dir == "." || dir == "/" || m.dirs[dir]
}

func (m *Mem) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	for d := dir; d != "." && d != "/"; d = filepath.Dir(d) {
		m.dirs[d] = true
	}
	return nil
}

func (m *Mem) OpenRead(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	ino, ok := m.files[path]
	if !ok {
		return nil, pathErr("open", path, fs.ErrNotExist)
	}
	return &memHandle{m: m, path: path, ino: ino}, nil
}

func (m *Mem) Create(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	if !m.rooted(path) {
		return nil, pathErr("create", path, fs.ErrNotExist)
	}
	ino, ok := m.files[path]
	if ok {
		ino.data = nil // truncate: volatile until the next sync
	} else {
		ino = &memInode{}
		m.files[path] = ino
	}
	return &memHandle{m: m, path: path, ino: ino, write: true}, nil
}

func (m *Mem) OpenAppend(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	ino, ok := m.files[path]
	if !ok {
		return nil, pathErr("open", path, fs.ErrNotExist)
	}
	return &memHandle{m: m, path: path, ino: ino, write: true}, nil
}

func (m *Mem) CreateExclusive(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	if !m.rooted(path) {
		return nil, pathErr("create", path, fs.ErrNotExist)
	}
	if _, ok := m.files[path]; ok {
		return nil, pathErr("create", path, fs.ErrExist)
	}
	ino := &memInode{}
	m.files[path] = ino
	return &memHandle{m: m, path: path, ino: ino, write: true}, nil
}

func (m *Mem) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	ino, ok := m.files[path]
	if !ok {
		return nil, pathErr("read", path, fs.ErrNotExist)
	}
	return append([]byte(nil), ino.data...), nil
}

func (m *Mem) Rename(oldPath, newPath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldPath, newPath = filepath.Clean(oldPath), filepath.Clean(newPath)
	if ino, ok := m.files[oldPath]; ok {
		delete(m.files, oldPath)
		m.files[newPath] = ino // durable commit waits for SyncDir
		return nil
	}
	if m.dirs[oldPath] {
		// Directory rename: move the entry and rekey every child in both
		// namespaces (content durability travels with the inodes).
		delete(m.dirs, oldPath)
		m.dirs[newPath] = true
		rekey := func(ns map[string]*memInode) {
			for p, ino := range ns {
				if rel, ok := childOf(oldPath, p); ok {
					delete(ns, p)
					ns[filepath.Join(newPath, rel)] = ino
				}
			}
		}
		rekey(m.files)
		rekey(m.durNS)
		for d := range m.dirs {
			if rel, ok := childOf(oldPath, d); ok {
				delete(m.dirs, d)
				m.dirs[filepath.Join(newPath, rel)] = true
			}
		}
		return nil
	}
	return pathErr("rename", oldPath, fs.ErrNotExist)
}

// childOf reports whether p is strictly inside dir, returning the relative
// remainder.
func childOf(dir, p string) (string, bool) {
	prefix := dir + string(filepath.Separator)
	if len(p) > len(prefix) && p[:len(prefix)] == prefix {
		return p[len(prefix):], true
	}
	return "", false
}

func (m *Mem) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	if _, ok := m.files[path]; ok {
		delete(m.files, path) // durable commit waits for SyncDir
		return nil
	}
	return pathErr("remove", path, fs.ErrNotExist)
}

func (m *Mem) RemoveAll(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	// Immediate in both namespaces: a recreated directory must not
	// resurrect stale children after a power cut.
	delete(m.files, path)
	delete(m.durNS, path)
	delete(m.dirs, path)
	for _, ns := range []map[string]*memInode{m.files, m.durNS} {
		for p := range ns {
			if _, ok := childOf(path, p); ok {
				delete(ns, p)
			}
		}
	}
	for d := range m.dirs {
		if _, ok := childOf(path, d); ok {
			delete(m.dirs, d)
		}
	}
	return nil
}

func (m *Mem) Truncate(path string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	ino, ok := m.files[path]
	if !ok {
		return pathErr("truncate", path, fs.ErrNotExist)
	}
	if size < 0 || size > int64(len(ino.data)) {
		return pathErr("truncate", path, fs.ErrInvalid)
	}
	ino.data = ino.data[:size]
	return nil
}

func (m *Mem) Stat(path string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	if ino, ok := m.files[path]; ok {
		return memInfo{name: filepath.Base(path), size: int64(len(ino.data))}, nil
	}
	if m.dirs[path] {
		return memInfo{name: filepath.Base(path), dir: true}, nil
	}
	return nil, pathErr("stat", path, fs.ErrNotExist)
}

func (m *Mem) Glob(pattern string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pattern = filepath.Clean(pattern)
	dir, base := filepath.Dir(pattern), filepath.Base(pattern)
	var out []string
	match := func(p string) {
		if filepath.Dir(p) != dir {
			return
		}
		if ok, err := filepath.Match(base, filepath.Base(p)); err == nil && ok {
			out = append(out, p)
		}
	}
	for p := range m.files {
		match(p)
	}
	for d := range m.dirs {
		match(d)
	}
	sort.Strings(out)
	return out, nil
}

// SyncDir commits the directory's entry list: the set of entries directly
// in dir that survive a power cut becomes exactly the current volatile
// set. Each committed file keeps whatever content its inode has synced.
func (m *Mem) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if dir != "." && dir != "/" && !m.dirs[dir] {
		return pathErr("sync", dir, fs.ErrNotExist)
	}
	for p := range m.durNS {
		if filepath.Dir(p) != dir {
			continue
		}
		if _, ok := m.files[p]; !ok {
			delete(m.durNS, p)
		}
	}
	for p, ino := range m.files {
		if filepath.Dir(p) == dir {
			m.durNS[p] = ino
		}
	}
	return nil
}

func (m *Mem) Lock(path string) (io.Closer, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	if m.locks[path] {
		return nil, ErrLockHeld
	}
	m.locks[path] = true
	return &memLock{m: m, path: path}, nil
}

type memLock struct {
	m    *Mem
	path string
	once sync.Once
}

func (l *memLock) Close() error {
	l.once.Do(func() {
		l.m.mu.Lock()
		delete(l.m.locks, l.path)
		l.m.mu.Unlock()
	})
	return nil
}

// PowerCut simulates losing power: every namespace entry and byte of
// content not committed by a Sync/SyncDir is discarded, and all advisory
// locks are released (the holding process is dead). The Mem is then
// re-openable like a disk after a crash.
func (m *Mem) PowerCut() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files = make(map[string]*memInode, len(m.durNS))
	for p, ino := range m.durNS {
		if !m.rooted(p) {
			delete(m.durNS, p)
			continue
		}
		ino.data = append([]byte(nil), ino.durable...)
		m.files[p] = ino
	}
	m.locks = make(map[string]bool)
}

// DurableLen reports the durable content size of path (-1 if the path
// would not survive a power cut) — a test probe.
func (m *Mem) DurableLen(path string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.durNS[filepath.Clean(path)]
	if !ok {
		return -1
	}
	return len(ino.durable)
}

type memHandle struct {
	m      *Mem
	path   string
	ino    *memInode
	pos    int
	write  bool
	closed bool
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return 0, pathErr("read", h.path, fs.ErrClosed)
	}
	if h.write {
		return 0, pathErr("read", h.path, fs.ErrInvalid)
	}
	if h.pos >= len(h.ino.data) {
		return 0, io.EOF
	}
	n := copy(p, h.ino.data[h.pos:])
	h.pos += n
	return n, nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return 0, pathErr("read", h.path, fs.ErrClosed)
	}
	if h.write || off < 0 {
		return 0, pathErr("read", h.path, fs.ErrInvalid)
	}
	var n int
	if off < int64(len(h.ino.data)) {
		n = copy(p, h.ino.data[off:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return 0, pathErr("write", h.path, fs.ErrClosed)
	}
	if !h.write {
		return 0, pathErr("write", h.path, fs.ErrInvalid)
	}
	h.ino.data = append(h.ino.data, p...)
	return len(p), nil
}

// Sync makes the inode's content durable and commits the file's own
// directory entry under the handle's path (if the path still names this
// inode).
func (h *memHandle) Sync() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return pathErr("sync", h.path, fs.ErrClosed)
	}
	h.ino.durable = append([]byte(nil), h.ino.data...)
	h.ino.synced = true
	if h.m.files[h.path] == h.ino {
		h.m.durNS[h.path] = h.ino
	}
	return nil
}

func (h *memHandle) Stat() (fs.FileInfo, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return nil, pathErr("stat", h.path, fs.ErrClosed)
	}
	return memInfo{name: filepath.Base(h.path), size: int64(len(h.ino.data))}, nil
}

func (h *memHandle) Close() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	h.closed = true
	return nil
}

type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() fs.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
