package vfs

import (
	"errors"
	"io"
	"io/fs"
	"path/filepath"
	"syscall"
	"testing"
)

func write(t *testing.T, f File, s string) {
	t.Helper()
	if _, err := io.WriteString(f, s); err != nil {
		t.Fatal(err)
	}
}

func TestMemSyncMakesContentDurable(t *testing.T) {
	m := NewMem()
	if err := m.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	f, err := m.Create("d/a")
	if err != nil {
		t.Fatal(err)
	}
	write(t, f, "hello")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	write(t, f, " world") // flushed but never fsynced
	f.Close()

	m.PowerCut()
	got, err := m.ReadFile("d/a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("durable content %q, want %q", got, "hello")
	}
}

func TestMemUnsyncedCreateLostOnPowerCut(t *testing.T) {
	m := NewMem()
	m.MkdirAll("d")
	f, _ := m.Create("d/a")
	write(t, f, "x")
	f.Close() // no Sync, no SyncDir
	m.PowerCut()
	if _, err := m.ReadFile("d/a"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("unsynced file survived: %v", err)
	}
}

func TestMemRenameCommittedBySyncDir(t *testing.T) {
	m := NewMem()
	m.MkdirAll("d")
	// Install v1 durably under the final name.
	f, _ := m.Create("d/cfg.tmp")
	write(t, f, "v1")
	f.Sync()
	f.Close()
	if err := m.Rename("d/cfg.tmp", "d/cfg"); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	// Stage v2 but cut power before the directory sync commits the rename.
	f, _ = m.Create("d/cfg.tmp")
	write(t, f, "v2")
	f.Sync()
	f.Close()
	m.Rename("d/cfg.tmp", "d/cfg")
	m.PowerCut()

	got, err := m.ReadFile("d/cfg")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v1" {
		t.Fatalf("uncommitted rename persisted: %q", got)
	}
}

func TestMemLock(t *testing.T) {
	m := NewMem()
	m.MkdirAll("d")
	l, err := m.Lock("d/LOCK")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Lock("d/LOCK"); !errors.Is(err, ErrLockHeld) {
		t.Fatalf("double lock: %v", err)
	}
	l.Close()
	if _, err := m.Lock("d/LOCK"); err != nil {
		t.Fatalf("relock after release: %v", err)
	}
}

func TestFaultFailOp(t *testing.T) {
	m := NewMem()
	f := NewFault(m)
	f.MkdirAll("d") // op 1
	f.FailOp(f.Ops()+1, ENOSPC)
	if _, err := f.Create("d/a"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("armed op did not fail: %v", err)
	}
	if _, err := f.Create("d/a"); err != nil {
		t.Fatalf("single-shot fault latched: %v", err)
	}
}

func TestFaultBreakWrites(t *testing.T) {
	m := NewMem()
	f := NewFault(m)
	f.MkdirAll("d")
	h, err := f.Create("d/a")
	if err != nil {
		t.Fatal(err)
	}
	f.BreakWrites(ENOSPC)
	if _, err := io.WriteString(h, "x"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write under ENOSPC: %v", err)
	}
	if _, err := f.OpenRead("d/a"); err != nil {
		t.Fatalf("read-class op failed under BreakWrites: %v", err)
	}
	f.ClearWrites()
	if _, err := io.WriteString(h, "x"); err != nil {
		t.Fatalf("write after ClearWrites: %v", err)
	}
}

func TestFaultTearWrite(t *testing.T) {
	m := NewMem()
	f := NewFault(m)
	f.MkdirAll("d")
	h, _ := f.Create("d/a")
	f.TearWrite()
	n, err := h.Write([]byte("1234"))
	if err == nil || n != 2 {
		t.Fatalf("torn write: n=%d err=%v", n, err)
	}
	data, _ := f.ReadFile("d/a")
	if string(data) != "12" {
		t.Fatalf("torn payload %q", data)
	}
}

func TestFaultCrashAtBoundaryLatches(t *testing.T) {
	m := NewMem()
	f := NewFault(m)
	f.MkdirAll("d")
	h, _ := f.Create("d/a")
	write(t, h, "x")
	f.CrashAtBoundary(1)
	if err := h.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("boundary sync: %v", err)
	}
	if !f.Crashed() {
		t.Fatal("not crashed")
	}
	if _, err := f.OpenRead("d/a"); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("op after crash: %v", err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close after crash must succeed: %v", err)
	}
}

// TestReadAtSeesAppends: on every FS a read handle's ReadAt is positioned
// (it neither uses nor moves the Read cursor), reports a window the file
// ends inside as a short read with io.EOF, and sees bytes appended after
// the handle was opened — what the WAL tail reader is built on.
func TestReadAtSeesAppends(t *testing.T) {
	for _, tc := range []struct {
		name string
		fs   FS
		dir  string
	}{
		{"os", NewOS(), t.TempDir()},
		{"mem", NewMem(), "d"},
		{"fault", NewFault(NewMem()), "d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(tc.dir, "seg")
			if err := tc.fs.MkdirAll(tc.dir); err != nil {
				t.Fatal(err)
			}
			w, err := tc.fs.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			write(t, w, "0123456789")
			r, err := tc.fs.OpenRead(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			buf := make([]byte, 4)
			if n, err := r.ReadAt(buf, 3); n != 4 || err != nil || string(buf) != "3456" {
				t.Fatalf("window inside the file: %d %q %v", n, buf[:n], err)
			}
			if n, err := r.ReadAt(buf, 8); n != 2 || err != io.EOF || string(buf[:n]) != "89" {
				t.Fatalf("window past the end: %d %q %v", n, buf[:n], err)
			}
			if n, err := r.ReadAt(buf, 10); n != 0 || err != io.EOF {
				t.Fatalf("window at the end: %d %v", n, err)
			}
			if n, err := r.ReadAt(nil, 10); n != 0 || err != nil {
				t.Fatalf("empty window: %d %v", n, err)
			}
			write(t, w, "abcd")
			if n, err := r.ReadAt(buf, 10); n != 4 || err != nil || string(buf) != "abcd" {
				t.Fatalf("appended bytes: %d %q %v", n, buf[:n], err)
			}
			if n, err := r.Read(buf); n != 4 || err != nil || string(buf) != "0123" {
				t.Fatalf("ReadAt moved the Read cursor: %d %q %v", n, buf[:n], err)
			}
		})
	}
}
