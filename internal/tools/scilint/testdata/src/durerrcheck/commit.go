// Package durerrcheck is the golden fixture for the durability errcheck
// rule: discarded errors from vfs calls, WAL/DB/Platform methods and
// inline Closes must be flagged; checked, blank-assigned, deferred-Close
// and suppressed forms must not.
package durerrcheck

import "repro/internal/tools/scilint/testdata/src/durerrcheck/vfs"

// commit exercises the vfs durability surface.
func commit(fs vfs.FS, f vfs.File) error {
	f.Sync()                  // want durerrcheck "discarded error from f.Sync"
	fs.Rename("tmp", "final") // want durerrcheck "discarded error from fs.Rename"
	fs.SyncDir(".")           // want durerrcheck "discarded error from fs.SyncDir"
	f.Close()                 // want durerrcheck "discarded error from f.Close"
	go f.Sync()               // want durerrcheck "discarded error from f.Sync"
	defer f.Sync()            // want durerrcheck "discarded error from f.Sync"
	defer f.Close()           // deferred Close is the read-path cleanup idiom: allowed
	_ = f.Sync()              // blank assignment is an explicit decision: allowed
	if err := f.Sync(); err != nil {
		return err
	}
	f.Sync() //scilint:ignore durerrcheck fixture demonstrating an annotated, justified discard
	return f.Close()
}

// WAL, DB and Platform mirror the real storage types by name.
type WAL struct{}

func (l *WAL) append(p []byte) error { return nil }
func (l *WAL) Sync() error           { return nil }
func (l *WAL) Close() error          { return nil }

type DB struct{}

func (db *DB) Checkpoint() (int, error) { return 0, nil }
func (db *DB) Close() error             { return nil }

type Platform struct{}

func (p *Platform) Checkpoint() error { return nil }
func (p *Platform) Close() error      { return nil }

func writePath(l *WAL, db *DB, p *Platform) {
	l.append(nil)   // want durerrcheck "discarded error from l.append"
	l.Sync()        // want durerrcheck "discarded error from l.Sync"
	db.Checkpoint() // want durerrcheck "discarded error from db.Checkpoint"
	db.Close()      // want durerrcheck "discarded error from db.Close"
	p.Checkpoint()  // want durerrcheck "discarded error from p.Checkpoint"
	if err := l.Close(); err != nil {
		_ = err
	}
}
