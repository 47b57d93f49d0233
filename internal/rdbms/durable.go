package rdbms

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/rdbms/vfs"
)

// Durable lifecycle: a database opened with Open lives in a directory —
// a manifest-chained sequence of snapshot generations plus the WAL
// segments written since the last checkpoint:
//
//	<dir>/MANIFEST        generation chain: one base + ordered deltas
//	<dir>/snap-000007/    snapshot generation (tables.dat inside)
//	<dir>/wal-000042.log  mutations since (and during) the last checkpoint
//
// Checkpoints are incremental: each one rotates the WAL and serialises
// only the partitions dirtied since the previous checkpoint into a new
// delta generation, chaining it onto the manifest — checkpoint cost
// follows the write rate, not the corpus size. When the delta chain
// exceeds Options.DeltaLimit the checkpoint compacts: it writes a full
// base generation and prunes the old chain. Open recovers manifest → base
// → deltas → WAL segments. WAL replay is tolerant: a torn final record
// truncates the segment at the last good boundary instead of aborting
// recovery — but a generation named by the manifest must exist and apply
// completely, or Open fails loudly rather than silently dropping
// committed data.
//
// ExportTables writes the same format outside any chain — one full
// generation of the chosen tables, installed like a checkpoint's — and
// ImportTables applies one to a fresh database.

// ErrNoDir is returned by durable operations on an in-memory database.
var ErrNoDir = errors.New("rdbms: database has no data directory")

// ErrManifest is returned by Open when the manifest is malformed or
// references a snapshot generation that is missing or unreadable, and when
// a directory without a manifest holds a pre-incremental snapshot.db.
// Unlike a torn WAL tail (an expected crash artefact, tolerated by
// truncation), a broken generation chain means committed data is gone;
// recovery must fail, not improvise.
var ErrManifest = errors.New("rdbms: manifest references missing or corrupt snapshot generation")

// ErrLocked is returned when another live process holds the data
// directory: two writers appending to the same WAL segment would
// interleave record bytes and corrupt the log.
var ErrLocked = errors.New("rdbms: data directory locked by another process")

// snapshotFile is the single-file checkpoint of pre-incremental layouts.
// This engine cannot read it, so Open refuses a directory that holds one
// and no manifest rather than open it as an empty store.
const snapshotFile = "snapshot.db"

// manifestFile names the generation chain inside a data directory.
const manifestFile = "MANIFEST"

// genDataFile is the serialised payload inside a generation directory.
const genDataFile = "tables.dat"

// lockFile is the advisory flock target inside a data directory. The OS
// releases the lock when the holding process dies, so a crash never
// strands the directory.
const lockFile = "LOCK"

// removeFile / removeTree are the prune primitives, indirected so tests
// can inject removal failures (prune is best-effort by contract: a
// leftover file must never fail an otherwise-successful checkpoint).
var (
	removeFile = func(fsys vfs.FS, path string) error { return fsys.Remove(path) }
	removeTree = func(fsys vfs.FS, path string) error { return fsys.RemoveAll(path) }
)

// durableStats is the checkpoint/recovery bookkeeping behind StorageStats.
type durableStats struct {
	lastCheckpoint     time.Time
	snapshotBytes      int64
	recoveredRecords   int
	recoveredTruncated bool
	compactions        int
	lastFull           bool
	lastParts          int
	pruneFailures      int
}

// StorageStats is an observable snapshot of the storage engine: partition
// layout, WAL volume and checkpoint/recovery history.
type StorageStats struct {
	// Dir is the data directory ("" for in-memory databases).
	Dir string `json:"dir,omitempty"`
	// Durable reports whether the database has a data directory.
	Durable bool `json:"durable"`
	// Tables and Rows size the store.
	Tables int `json:"tables"`
	Rows   int `json:"rows"`
	// TablePartitions maps table name to its lock-stripe count.
	TablePartitions map[string]int `json:"table_partitions"`
	// WALRecords / WALBytes count appends since the database was opened
	// (across segment rotations).
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// WALSegment is the current segment sequence number.
	WALSegment int `json:"wal_segment"`
	// WALFsyncPolicy is the configured fsync policy ("checkpoint",
	// "interval" or "always"); WALFsyncs counts fsyncs issued by the
	// policy's background flusher and WALFsyncBatchedRecords the records
	// those fsyncs committed — their ratio is the achieved group-commit
	// batch size.
	WALFsyncPolicy         string `json:"wal_fsync_policy"`
	WALFsyncs              uint64 `json:"wal_fsyncs"`
	WALFsyncBatchedRecords uint64 `json:"wal_fsync_batched_records"`
	// Checkpoints counts completed checkpoints since open; LastCheckpoint
	// and SnapshotBytes describe the most recent one.
	Checkpoints    int       `json:"checkpoints"`
	LastCheckpoint time.Time `json:"last_checkpoint"`
	SnapshotBytes  int64     `json:"snapshot_bytes"`
	// SnapshotGeneration is the highest snapshot generation number in the
	// manifest chain; DeltaChainLength is the number of delta generations
	// chained onto the base (0 right after a full checkpoint).
	SnapshotGeneration int `json:"snapshot_generation"`
	DeltaChainLength   int `json:"delta_chain_length"`
	// Compactions counts checkpoints that folded the delta chain back
	// into a full base; LastCheckpointFull reports whether the most
	// recent checkpoint was one, and LastCheckpointPartitions how many
	// partitions it serialised.
	Compactions              int  `json:"compactions"`
	LastCheckpointFull       bool `json:"last_checkpoint_full"`
	LastCheckpointPartitions int  `json:"last_checkpoint_partitions"`
	// PruneFailures counts WAL segments and generation directories that a
	// checkpoint failed to delete. Prune is best-effort: a leftover file
	// never fails a checkpoint, but it is surfaced here so operators notice
	// disk not being reclaimed.
	PruneFailures int `json:"prune_failures"`
	// RecoveredRecords is the number of WAL records replayed by Open;
	// RecoveredTruncated reports whether recovery had to truncate a torn
	// or corrupt log tail.
	RecoveredRecords   int  `json:"recovered_records"`
	RecoveredTruncated bool `json:"recovered_truncated"`
}

// CheckpointStats reports one completed checkpoint.
type CheckpointStats struct {
	// Duration is the wall-clock time of the checkpoint.
	Duration time.Duration
	// SnapshotBytes is the size of the written snapshot generation (0 for
	// a no-op checkpoint that found nothing dirty).
	SnapshotBytes int64
	// Tables and Rows count the tables and rows serialised into the
	// generation (a delta counts only the tables and rows it carries).
	Tables int
	Rows   int
	// Generation is the generation number this checkpoint wrote (0 for a
	// no-op checkpoint); Full reports whether it was a base (first
	// checkpoint, compaction, or DeltaLimit < 0) rather than a delta.
	Generation int
	Full       bool
	// PartitionsWritten counts the partitions serialised;
	// DeltaChainLen is the manifest's delta count after this checkpoint.
	PartitionsWritten int
	DeltaChainLen     int
	// SegmentsPruned is the number of WAL segments deleted; PruneFailures
	// counts files the prune could not delete (surfaced, never fatal).
	SegmentsPruned int
	PruneFailures  int
	// WALSegment is the segment now receiving appends.
	WALSegment int
}

// OpenWithOptions is Open with explicit database options. The partition
// option applies to tables created after the open; recovered tables keep
// the partition count recorded in the snapshot/WAL.
func OpenWithOptions(dir string, o Options) (*DB, error) {
	if dir == "" {
		return nil, ErrNoDir
	}
	fsys := o.FS
	if fsys == nil {
		fsys = vfs.NewOS()
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	lock, err := acquireDirLock(fsys, dir)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*DB, error) {
		lock.Close()
		return nil, err
	}

	// Recover the snapshot chain: manifest → base generation → deltas in
	// chain order. A generation the manifest references must exist and
	// apply completely — failing loudly here beats silently dropping
	// committed partitions.
	base, deltas, walFloor, err := readManifest(fsys, dir)
	if err != nil {
		return fail(err)
	}
	db := NewDBWithOptions(Options{Partitions: o.Partitions, Metrics: o.Metrics})
	if base > 0 {
		for _, gen := range append([]int{base}, deltas...) {
			if err := applyGenerationFile(db, fsys, filepath.Join(dir, genDirName(gen), genDataFile)); err != nil {
				return fail(fmt.Errorf("%w: generation %d: %v", ErrManifest, gen, err))
			}
		}
	} else {
		// Without a manifest the store is new — unless a pre-incremental
		// layout keeps its rows in snapshot.db, which opening as empty
		// would silently drop.
		legacy := filepath.Join(dir, snapshotFile)
		if _, err := fsys.Stat(legacy); err == nil {
			return fail(fmt.Errorf("%w: %s is a pre-incremental snapshot this version cannot read; open the directory once with an older binary and checkpoint it", ErrManifest, legacy))
		} else if !errors.Is(err, fs.ErrNotExist) {
			return fail(err)
		}
	}
	// The generations hold exactly the recovered state: start every stripe
	// clean so the next checkpoint's delta carries only what the WAL
	// replay below and live traffic actually dirty.
	for _, t := range db.tablesSorted() {
		t.markAllClean()
	}

	segs, err := walSegments(fsys, dir)
	if err != nil {
		return fail(err)
	}
	// Segments below the manifest's WAL floor are superseded by the chain;
	// they exist only because a checkpoint's best-effort prune failed.
	// Replaying one over the chain would resurrect deleted rows, so skip
	// them and retry the reclaim.
	live := segs[:0]
	for _, seg := range segs {
		if segSeq(seg) < walFloor {
			_ = fsys.Remove(seg)
			continue
		}
		live = append(live, seg)
	}
	segs = live
	recovered, truncated := 0, false
	for i, seg := range segs {
		n, trunc, err := replaySegment(db, fsys, seg)
		recovered += n
		if err != nil {
			return fail(fmt.Errorf("replay %s: %w", seg, err))
		}
		if trunc {
			truncated = true
			// Records in later segments follow a gap; applying them would
			// fabricate a state no run ever produced. Drop them.
			for _, later := range segs[i+1:] {
				_ = fsys.Remove(later)
			}
			segs = segs[:i+1]
			break
		}
	}

	var f vfs.File
	// A fresh segment must start at or above the floor, or the next open
	// would reap it as superseded.
	seq := 1
	if walFloor > seq {
		seq = walFloor
	}
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		seq = segSeq(last)
		f, err = fsys.OpenAppend(last)
	} else {
		f, err = fsys.CreateExclusive(filepath.Join(dir, segName(seq)))
		if err == nil {
			// Make the fresh segment's directory entry durable: its first
			// fsync commits its content, but the entry itself lives in the
			// directory.
			_ = fsys.SyncDir(dir)
		}
	}
	if err != nil {
		return fail(err)
	}
	db.attachWAL(newWALFile(f, o.Fsync, o.FsyncInterval, db.m))
	db.dir = dir
	db.fs = fsys
	db.lock = lock
	db.walSeq = seq
	db.deltaLimit = o.DeltaLimit
	if db.deltaLimit == 0 {
		db.deltaLimit = DefaultDeltaLimit
	}
	db.snapBase = base
	db.snapDeltas = deltas
	db.snapGen = maxGeneration(fsys, dir, base, deltas)
	db.stats.recoveredRecords = recovered
	db.stats.recoveredTruncated = truncated
	return db, nil
}

// applyGenerationFile applies one generation payload from disk.
func applyGenerationFile(db *DB, fsys vfs.FS, path string) error {
	f, err := fsys.OpenRead(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return applyGeneration(db, f)
}

// stageGeneration writes one generation payload to <tmp>/tables.dat with
// write and makes it durable: the file is fsynced, and so is tmp, since
// fsyncing the file alone does not persist its name in the directory — a
// manifest referencing a generation whose payload entry was lost to a
// power cut would make the store unopenable once the WAL is pruned. A
// leftover tmp from an earlier crash is replaced. The caller installs the
// result with installGeneration, or removes tmp.
func stageGeneration(fsys vfs.FS, tmp string, write func(io.Writer) error) (size int64, err error) {
	_ = fsys.RemoveAll(tmp)
	if err := fsys.MkdirAll(tmp); err != nil {
		return 0, err
	}
	f, err := fsys.Create(filepath.Join(tmp, genDataFile))
	if err != nil {
		return 0, err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		_ = fsys.RemoveAll(tmp)
		return 0, err
	}
	if info, _ := f.Stat(); info != nil {
		size = info.Size()
	}
	if err := f.Close(); err != nil {
		_ = fsys.RemoveAll(tmp)
		return 0, err
	}
	_ = fsys.SyncDir(tmp)
	return size, nil
}

// installGeneration atomically moves a staged generation directory to dir
// and makes the new entry durable in dir's parent.
func installGeneration(fsys vfs.FS, tmp, dir string) error {
	if err := fsys.Rename(tmp, dir); err != nil {
		_ = fsys.RemoveAll(tmp)
		return err
	}
	_ = fsys.SyncDir(filepath.Dir(dir))
	return nil
}

// ExportTables writes the named tables, every stripe of each, as one
// generation to <dir>/tables.dat on fsys, installed the way a checkpoint
// installs its generations: staged in dir.tmp, fsynced, then renamed into
// place, so dir holds either the whole export or nothing. It fails with
// ErrExists if dir already exists. The export is invisible to
// checkpoints: it marks no stripe clean. It returns the rows written.
func (db *DB) ExportTables(fsys vfs.FS, dir string, names ...string) (rows int, err error) {
	tables := make([]*Table, 0, len(names))
	for _, name := range names {
		t, err := db.Table(name)
		if err != nil {
			return 0, err
		}
		tables = append(tables, t)
	}
	if _, err := fsys.Stat(dir); err == nil {
		return 0, fmt.Errorf("export %s: %w", dir, ErrExists)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return 0, err
	}
	tmp := dir + ".tmp"
	if _, err := stageGeneration(fsys, tmp, func(w io.Writer) (err error) {
		_, _, _, rows, err = writeGeneration(w, tables, true)
		return err
	}); err != nil {
		return 0, err
	}
	if err := installGeneration(fsys, tmp, dir); err != nil {
		return 0, err
	}
	return rows, nil
}

// ImportTables reads a directory written by ExportTables into a new
// in-memory database and returns it with its row count. A missing export
// fails with an error satisfying errors.Is(err, fs.ErrNotExist); an
// undecodable one with ErrCorrupt.
func ImportTables(fsys vfs.FS, dir string) (*DB, int, error) {
	db := NewDB()
	if err := applyGenerationFile(db, fsys, filepath.Join(dir, genDataFile)); err != nil {
		return nil, 0, err
	}
	rows := 0
	for _, t := range db.tablesSorted() {
		rows += t.Len()
	}
	return db, rows, nil
}

// genDirName formats a snapshot generation directory name; zero-padded so
// lexicographic order is generation order.
func genDirName(gen int) string { return fmt.Sprintf("snap-%06d", gen) }

// genDirSeq parses a generation number from a snap directory path (0 if
// malformed, e.g. a leftover .tmp directory).
func genDirSeq(path string) int {
	base := strings.TrimPrefix(filepath.Base(path), "snap-")
	n, err := strconv.Atoi(base)
	if err != nil {
		return 0
	}
	return n
}

// maxGeneration returns the highest generation number in use — referenced
// by the manifest or present on disk (an orphan directory from a crash
// between generation rename and manifest install must not be reused).
func maxGeneration(fsys vfs.FS, dir string, base int, deltas []int) int {
	maxGen := base
	for _, d := range deltas {
		if d > maxGen {
			maxGen = d
		}
	}
	if matches, err := fsys.Glob(filepath.Join(dir, "snap-*")); err == nil {
		for _, m := range matches {
			if n := genDirSeq(m); n > maxGen {
				maxGen = n
			}
		}
	}
	return maxGen
}

// manifestMagic heads the manifest file.
const manifestMagic = "SLMANIFEST1"

// readManifest parses <dir>/MANIFEST into the generation chain plus the
// WAL floor: the first segment sequence the chain does NOT supersede.
// Segments below the floor are dead — the chain already contains their
// effects — and must be skipped at recovery even if a prune failed to
// delete them (replaying a stale pre-chain segment over the chain would
// resurrect deleted rows). A missing manifest yields base 0 (a fresh
// directory); a malformed one is an error — improvising a chain risks
// silently dropping data. A manifest without a wal line has floor 0.
func readManifest(fsys vfs.FS, dir string) (base int, deltas []int, walFloor int, err error) {
	data, err := fsys.ReadFile(filepath.Join(dir, manifestFile))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil, 0, nil
	}
	if err != nil {
		return 0, nil, 0, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 || strings.TrimSpace(lines[0]) != manifestMagic {
		return 0, nil, 0, fmt.Errorf("%w: bad manifest header", ErrManifest)
	}
	for i, line := range lines[1:] {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return 0, nil, 0, fmt.Errorf("%w: bad manifest line %q", ErrManifest, line)
		}
		n, aerr := strconv.Atoi(fields[1])
		if aerr != nil || n <= 0 {
			return 0, nil, 0, fmt.Errorf("%w: bad manifest number %q", ErrManifest, fields[1])
		}
		switch {
		case i == 0 && fields[0] == "base":
			base = n
		case i > 0 && fields[0] == "delta" && walFloor == 0:
			deltas = append(deltas, n)
		case i > 0 && fields[0] == "wal" && walFloor == 0:
			walFloor = n
		default:
			return 0, nil, 0, fmt.Errorf("%w: bad manifest line %q", ErrManifest, line)
		}
	}
	return base, deltas, walFloor, nil
}

// writeManifest atomically installs the generation chain and the WAL
// floor: tmp + fsync + rename + directory sync. The rename is the
// checkpoint's commit point.
func writeManifest(fsys vfs.FS, dir string, base int, deltas []int, walFloor int) error {
	var b strings.Builder
	b.WriteString(manifestMagic)
	b.WriteByte('\n')
	fmt.Fprintf(&b, "base %d\n", base)
	for _, d := range deltas {
		fmt.Fprintf(&b, "delta %d\n", d)
	}
	if walFloor > 0 {
		fmt.Fprintf(&b, "wal %d\n", walFloor)
	}
	tmp := filepath.Join(dir, manifestFile+".tmp")
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(f, b.String()); err != nil {
		f.Close()
		_ = fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, manifestFile)); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	_ = fsys.SyncDir(dir)
	return nil
}

// acquireDirLock takes the directory's advisory lock, refusing to share a
// data directory between live processes.
func acquireDirLock(fsys vfs.FS, dir string) (io.Closer, error) {
	c, err := fsys.Lock(filepath.Join(dir, lockFile))
	if errors.Is(err, vfs.ErrLockHeld) {
		return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Checkpoint rotates the WAL onto a fresh segment and persists an
// incremental snapshot generation: only the partitions dirtied since the
// last checkpoint are re-serialised (each table under its own whole-table
// read barrier, so the rest of the store keeps serving), the generation is
// atomically installed by a manifest rename, and the superseded WAL
// segments are pruned. The first checkpoint — and every checkpoint once
// the delta chain exceeds Options.DeltaLimit — writes a full base
// generation instead, compacting the chain. Prune failures never fail the
// checkpoint; they are counted in the stats. Safe to call online under
// concurrent readers and writers; concurrent checkpoints serialise.
func (db *DB) Checkpoint() (CheckpointStats, error) {
	if db.dir == "" {
		return CheckpointStats{}, ErrNoDir
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	start := time.Now() //scilint:ignore determinism checkpoint duration is operator telemetry, not replayed state

	// 1. Rotate: every append from here lands in the new segment, so any
	// record possibly missing from the generation below survives the
	// prune. Rotation also repairs a broken WAL (clean segment; the
	// generation captures what the torn one could not log).
	newSeq := db.currentSeq() + 1
	segPath := filepath.Join(db.dir, segName(newSeq))
	f, err := db.fs.CreateExclusive(segPath)
	if err != nil {
		return CheckpointStats{}, err
	}
	old, err := db.wal.rotate(f)
	if err != nil {
		f.Close()
		_ = db.fs.Remove(segPath)
		return CheckpointStats{}, err
	}
	if old != nil {
		_ = old.Close()
	}
	db.setSeq(newSeq)
	// The new segment's directory entry must survive a power cut along
	// with the records its fsyncs will commit.
	_ = db.fs.SyncDir(db.dir)

	full := db.snapBase == 0 || db.deltaLimit < 0 || len(db.snapDeltas) >= db.deltaLimit
	// A dropped table not yet folded into a base generation forces a
	// compaction: a delta would let the WAL floor pass the drop record
	// while an older chained generation still carries the table, and the
	// next recovery would resurrect it.
	db.statsMu.Lock()
	dropsSeen := db.dropEpoch
	if dropsSeen > db.handledDropEpoch {
		full = true
	}
	db.statsMu.Unlock()

	// 2. Serialise the generation to a temp directory, fsync, then
	// 3. atomically install: rename the directory, then commit by
	// rewriting the manifest (tmp + fsync + rename). The generation
	// number is consumed at allocation, success or not: a checkpoint that
	// fails after its rename (e.g. the manifest write) leaves an orphan
	// snap directory, and reusing the number would make every later
	// rename fail on it.
	gen := db.snapGen + 1
	db.statsMu.Lock()
	db.snapGen = gen
	db.statsMu.Unlock()
	tmpDir := filepath.Join(db.dir, genDirName(gen)+".tmp")
	var cuts []genCut
	var nTables, nParts, nRows int
	size, err := stageGeneration(db.fs, tmpDir, func(w io.Writer) (err error) {
		cuts, nTables, nParts, nRows, err = writeGeneration(w, db.tablesSorted(), full)
		return err
	})
	if err != nil {
		return CheckpointStats{}, err
	}

	st := CheckpointStats{WALSegment: newSeq, Full: full}
	compacted := full && db.snapBase != 0
	if nParts == 0 && !full {
		// Nothing dirtied since the last checkpoint: no generation to
		// chain. The rotation still happened (repairing a broken WAL) and
		// the old segments still hold nothing the chain lacks, so prune.
		_ = db.fs.RemoveAll(tmpDir)
		st.DeltaChainLen = len(db.snapDeltas)
		st.Generation = 0
	} else {
		if err := installGeneration(db.fs, tmpDir, filepath.Join(db.dir, genDirName(gen))); err != nil {
			return CheckpointStats{}, err
		}
		base, deltas := db.snapBase, db.snapDeltas
		if full {
			base, deltas = gen, nil
		} else {
			deltas = append(append([]int{}, deltas...), gen)
		}
		// The floor is this checkpoint's rotation seq: every earlier
		// segment's effects are in the chain being installed.
		if err := writeManifest(db.fs, db.dir, base, deltas, newSeq); err != nil {
			// The orphan generation directory is ignored by recovery (not
			// in the manifest) and retired by a later compaction.
			return CheckpointStats{}, err
		}
		// Committed: advance the chain and the per-partition clean marks.
		for _, c := range cuts {
			c.table.markClean(c.cuts)
		}
		db.statsMu.Lock()
		db.snapBase, db.snapDeltas = base, deltas
		if full && dropsSeen > db.handledDropEpoch {
			db.handledDropEpoch = dropsSeen
		}
		db.statsMu.Unlock()
		st.Generation = gen
		st.DeltaChainLen = len(deltas)
		st.Tables = nTables
		st.PartitionsWritten = nParts
		st.Rows = nRows
		st.SnapshotBytes = size
	}

	// 4. Prune: segments before the rotation are fully contained in the
	// installed chain, and a compaction retires the superseded generations.
	// Best-effort by contract: a file that will not delete is surfaced in
	// the stats, never a checkpoint failure.
	pruneFailures := 0
	// A registered replication cursor holds segments from its position up:
	// pruning past a connected follower would force a full resync, so the
	// prune floor is min(rotation seq, lowest held seq).
	pruneBelow := newSeq
	if held := db.minHeldWALSeq(); held > 0 && held < pruneBelow {
		pruneBelow = held
	}
	if segs, err := walSegments(db.fs, db.dir); err == nil {
		for _, seg := range segs {
			if segSeq(seg) < pruneBelow {
				if removeFile(db.fs, seg) == nil {
					st.SegmentsPruned++
				} else {
					pruneFailures++
				}
			}
		}
	}
	if full && st.Generation != 0 {
		heldGens := db.heldGenerations()
		if matches, err := db.fs.Glob(filepath.Join(db.dir, "snap-*")); err == nil {
			for _, m := range matches {
				if m == filepath.Join(db.dir, genDirName(gen)) {
					continue
				}
				// Generations mid-ship to a syncing follower survive the
				// compaction; the next compaction after the follower moves
				// on to WAL streaming retires them.
				if heldGens[genDirSeq(m)] {
					continue
				}
				if removeTree(db.fs, m) != nil {
					pruneFailures++
				}
			}
		}
	}
	st.PruneFailures = pruneFailures
	st.Duration = time.Since(start) //scilint:ignore determinism checkpoint duration is operator telemetry, not replayed state

	db.m.checkpoints.Inc()
	db.m.checkpointDur.ObserveDuration(st.Duration)
	if st.SnapshotBytes > 0 {
		db.m.checkpointBytes.Add(uint64(st.SnapshotBytes))
	}

	db.statsMu.Lock()
	db.stats.lastCheckpoint = time.Now() //scilint:ignore determinism wall-clock checkpoint stamp feeds /api/stats, not recovery
	if st.Generation != 0 {
		db.stats.snapshotBytes = st.SnapshotBytes
		db.stats.lastFull = full
		db.stats.lastParts = st.PartitionsWritten
		if compacted {
			db.stats.compactions++
		}
	}
	db.stats.pruneFailures += pruneFailures
	db.statsMu.Unlock()
	return st, nil
}

// Close flushes and fsyncs the WAL, releases the segment file and the
// data-directory lock. It does not checkpoint — callers wanting a
// compacted shutdown call Checkpoint first. Safe on in-memory databases
// (no-op).
func (db *DB) Close() error {
	if db.wal == nil {
		return nil
	}
	err := db.wal.closeFile()
	if db.lock != nil {
		if cerr := db.lock.Close(); err == nil {
			err = cerr
		}
		db.lock = nil
	}
	return err
}

// closeFile flushes, fsyncs and closes the underlying segment file, and
// stops the background flusher of interval/always policies. A broken WAL
// skips the flush (its tail is already torn) and just releases the file.
// The close's own successful fsync advances the durable watermark: a
// group-commit appender parked while Close ran must see its record as
// committed — it is durably on disk — not report ErrWALBroken for a
// write the next Open would replay.
func (l *WAL) closeFile() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.stopFlusher()
	var err error
	if !l.broken {
		err = l.w.Flush()
	}
	if l.f != nil {
		serr := l.f.Sync()
		if err == nil && !l.broken {
			err = serr
		}
		if err == nil && serr == nil && !l.broken && l.records > l.durable {
			l.durable = l.records
			l.syncCond.Broadcast()
		}
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}

// Abandon simulates a process crash for tests and crash drills: it drops
// the WAL file handle and the data-directory lock WITHOUT flushing or
// syncing, exactly as the kernel would when the process dies. The DB
// value must not be used afterwards; a later OpenWithOptions on the
// directory recovers from whatever reached the OS.
func (db *DB) Abandon() {
	if db.wal != nil {
		db.wal.mu.Lock()
		if db.wal.f != nil {
			_ = db.wal.f.Close()
			db.wal.f = nil
		}
		db.wal.broken = true // refuse any straggler appends
		db.wal.closed = true
		db.wal.stopFlusher()
		db.wal.mu.Unlock()
	}
	if db.lock != nil {
		_ = db.lock.Close()
		db.lock = nil
	}
}

// StorageStats reports the storage engine's observable state.
func (db *DB) StorageStats() StorageStats {
	st := StorageStats{
		Dir:             db.dir,
		Durable:         db.dir != "",
		TablePartitions: map[string]int{},
	}
	for _, t := range db.tablesSorted() {
		st.Tables++
		st.Rows += t.Len()
		st.TablePartitions[t.Name()] = t.Partitions()
	}
	st.WALFsyncPolicy = FsyncCheckpoint.String()
	if db.wal != nil {
		st.WALRecords = db.wal.Records()
		st.WALBytes = db.wal.Bytes()
		st.WALFsyncPolicy = db.wal.Policy().String()
		st.WALFsyncs, st.WALFsyncBatchedRecords = db.wal.FsyncStats()
	}
	db.statsMu.Lock()
	st.WALSegment = db.walSeq
	st.Checkpoints = int(db.m.checkpoints.Value())
	st.LastCheckpoint = db.stats.lastCheckpoint
	st.SnapshotBytes = db.stats.snapshotBytes
	// SnapshotGeneration reports the manifest's view (the chain a recovery
	// would apply), not the allocation counter — a failed or no-op
	// checkpoint may consume numbers without chaining a generation.
	st.SnapshotGeneration = db.snapBase
	if n := len(db.snapDeltas); n > 0 {
		st.SnapshotGeneration = db.snapDeltas[n-1]
	}
	st.DeltaChainLength = len(db.snapDeltas)
	st.Compactions = db.stats.compactions
	st.LastCheckpointFull = db.stats.lastFull
	st.LastCheckpointPartitions = db.stats.lastParts
	st.PruneFailures = db.stats.pruneFailures
	st.RecoveredRecords = db.stats.recoveredRecords
	st.RecoveredTruncated = db.stats.recoveredTruncated
	db.statsMu.Unlock()
	return st
}

func (db *DB) currentSeq() int {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	return db.walSeq
}

func (db *DB) setSeq(seq int) {
	db.statsMu.Lock()
	db.walSeq = seq
	db.statsMu.Unlock()
}

// segName formats a WAL segment file name; zero-padded so lexicographic
// order is replay order.
func segName(seq int) string { return fmt.Sprintf("wal-%06d.log", seq) }

// segSeq parses a segment sequence number from its path (0 if malformed).
func segSeq(path string) int {
	base := filepath.Base(path)
	base = strings.TrimPrefix(base, "wal-")
	base = strings.TrimSuffix(base, ".log")
	n, err := strconv.Atoi(base)
	if err != nil {
		return 0
	}
	return n
}

// walSegments lists the directory's WAL segments in replay order.
func walSegments(fsys vfs.FS, dir string) ([]string, error) {
	matches, err := fsys.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Slice(matches, func(i, j int) bool { return segSeq(matches[i]) < segSeq(matches[j]) })
	return matches, nil
}

// replaySegment replays one WAL segment onto db with recovery (loose)
// semantics. A record that fails to decode — a torn tail from a crash
// mid-append, or corruption — truncates the file at the last good record
// boundary and reports trunc=true; it never aborts recovery. Errors
// applying a well-formed record (schema drift, disk errors) do abort.
func replaySegment(db *DB, fsys vfs.FS, path string) (applied int, trunc bool, err error) {
	f, err := fsys.OpenRead(path)
	if err != nil {
		return 0, false, err
	}
	cr := &countingReader{r: f}
	br := bufio.NewReaderSize(cr, 1<<16)
	var good int64
	for {
		rec, rerr := readRecord(br)
		if rerr == io.EOF {
			f.Close()
			return applied, false, nil
		}
		if rerr != nil {
			// Torn or corrupt record: cut the log at the last good
			// boundary so the next open sees a clean tail.
			f.Close()
			if terr := fsys.Truncate(path, good); terr != nil {
				return applied, true, terr
			}
			return applied, true, nil
		}
		if aerr := applyRecord(db, rec); aerr != nil {
			f.Close()
			return applied, false, aerr
		}
		applied++
		good = cr.n - int64(br.Buffered())
	}
}

// countingReader tracks the bytes handed to the buffered decoder, so the
// last good record boundary can be computed as read - buffered.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
