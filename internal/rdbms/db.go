package rdbms

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rdbms/vfs"
)

// Options configures a database.
type Options struct {
	// Partitions is the lock-stripe count for newly created tables
	// (default DefaultPartitions; 1 degenerates to the historic
	// single-lock table).
	Partitions int
	// WAL, when set, receives every table mutation and DDL statement.
	WAL *WAL
	// Fsync selects when durable databases fsync the WAL (default
	// FsyncCheckpoint: only at checkpoint, rotation and close). See
	// FsyncPolicy for the interval and group-commit variants.
	Fsync FsyncPolicy
	// FsyncInterval is the flush cadence under FsyncIntervalPolicy
	// (default DefaultFsyncInterval).
	FsyncInterval time.Duration
	// DeltaLimit bounds the incremental-checkpoint delta chain: when a
	// checkpoint would make the chain longer than this, it writes a full
	// base generation instead and prunes the old chain (default
	// DefaultDeltaLimit; negative forces every checkpoint to be full).
	DeltaLimit int
	// FS is the filesystem durable databases perform their I/O through
	// (default the real OS). Tests substitute vfs.Mem / vfs.Fault to
	// exercise crash and fault paths without a disk.
	FS vfs.FS
	// Metrics is the registry the storage families live on (nil: a
	// private one). A WAL passed in Options.WAL keeps its own.
	Metrics *obs.Registry
}

// DefaultDeltaLimit is the delta-chain bound when Options do not name one:
// after this many delta generations, the next checkpoint compacts the
// chain into a fresh base.
const DefaultDeltaLimit = 8

// DB is a named collection of partitioned tables plus an optional
// write-ahead log and, when opened with Open, a durable home directory
// with a checkpoint cycle (see durable.go).
type DB struct {
	mu         sync.RWMutex
	tables     map[string]*Table
	wal        *WAL
	partitions int
	m          *metrics

	// Durable state (zero when the DB is purely in-memory).
	dir     string
	fs      vfs.FS    // filesystem all durable I/O goes through
	lock    io.Closer // flock on <dir>/LOCK, held for the DB's lifetime
	walSeq  int
	ckptMu  sync.Mutex // serialises checkpoints
	statsMu sync.Mutex
	stats   durableStats

	// Incremental-checkpoint state (guarded by statsMu; mutated only under
	// ckptMu during checkpoints).
	deltaLimit int   // delta-chain bound before compaction
	snapBase   int   // base generation number (0 = none yet)
	snapDeltas []int // delta generation numbers, chain order
	snapGen    int   // highest generation number ever allocated

	// Drop bookkeeping (guarded by statsMu): dropEpoch counts DropTable
	// calls, handledDropEpoch the drops captured by a FULL generation.
	// While they differ, a delta checkpoint could let the WAL floor pass
	// the drop record while chained generations still carry the dropped
	// table — recovery would resurrect it — so checkpoints compact until
	// the drop is folded into a base.
	dropEpoch        int
	handledDropEpoch int

	// Replication holds (guarded by replMu): per-follower pins that stop
	// the checkpoint prune from deleting WAL segments or snapshot
	// generations a registered replication cursor still needs (repl.go).
	replMu   sync.Mutex
	replHold map[string]*replHold
}

// NewDB creates an empty in-memory database without a WAL.
func NewDB() *DB { return NewDBWithOptions(Options{}) }

// NewDBWithOptions creates an empty database with the given options.
func NewDBWithOptions(o Options) *DB {
	if o.Partitions <= 0 {
		o.Partitions = DefaultPartitions
	}
	return &DB{
		tables:     make(map[string]*Table),
		wal:        o.WAL,
		partitions: o.Partitions,
		m:          newMetrics(o.Metrics),
	}
}

// CreateTable adds a table with the given schema and the database's
// default partition count.
func (db *DB) CreateTable(name string, schema *Schema) (*Table, error) {
	return db.CreateTablePartitioned(name, schema, db.partitions)
}

// CreateTablePartitioned adds a table with an explicit lock-stripe count
// (<= 0 means the database default).
func (db *DB) CreateTablePartitioned(name string, schema *Schema, parts int) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("empty table name: %w", ErrSchema)
	}
	if parts <= 0 {
		parts = db.partitions
	}
	if parts > MaxPartitions {
		parts = MaxPartitions // keep the logged DDL within recovery's bounds
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("table %q: %w", name, ErrExists)
	}
	// Write-ahead: the DDL record must land before the table exists.
	if db.wal != nil {
		if err := db.wal.append(walRecord{Op: walCreateTable, Table: name, Cols: schema.Cols, PKName: schema.Cols[schema.PK].Name, Parts: parts}); err != nil {
			return nil, err
		}
	}
	t := newTable(name, schema, parts, db.wal, db.m)
	db.tables[name] = t
	return t, nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("table %q: %w", name, ErrNotFound)
	}
	return t, nil
}

// DropTable removes the named table. The drop is WAL-logged write-ahead
// like every other DDL statement, so a recovery replaying the log does not
// resurrect the table.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("table %q: %w", name, ErrNotFound)
	}
	if db.wal != nil {
		if err := db.wal.append(walRecord{Op: walDropTable, Table: name}); err != nil {
			return err
		}
	}
	delete(db.tables, name)
	db.statsMu.Lock()
	db.dropEpoch++
	db.statsMu.Unlock()
	return nil
}

// TableNames returns the table names (unordered).
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	return out
}

// tablesSorted returns the tables in name order (deterministic snapshots).
func (db *DB) tablesSorted() []*Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Table, 0, len(names))
	for _, n := range names {
		out = append(out, db.tables[n])
	}
	return out
}

// attachWAL wires the WAL into the database and every existing table —
// used by Open after recovery replay, so the replay itself is not
// re-logged.
func (db *DB) attachWAL(wal *WAL) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.wal = wal
	for _, t := range db.tables {
		t.wal = wal
	}
}
