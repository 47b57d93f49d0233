package rdbms

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Generation format: the incremental-checkpoint unit. A generation is a
// partition-scoped snapshot — for each table it carries the full header
// (schema, partition count, index definitions) plus the payload of a
// subset of the table's partitions. A base generation carries every
// partition of every table; a delta generation carries only the stripes
// dirtied since the previous generation. Applying a generation replaces
// exactly the stripes it contains, so a manifest chain base → delta …
// delta reconstructs the store partition by partition.

// genMagic heads every snapshot-generation stream.
const genMagic = "SLSNAPG1\n"

// genCut records what one generation captured from one table, for the
// post-install markClean commit.
type genCut struct {
	table *Table
	cuts  []partCut
}

// writeGeneration serialises the dirty stripes of the given tables (all
// stripes when full) to w. Each table is emitted under its whole-table read
// barrier, so its stripes form one consistent cut; a checkpoint commits the
// returned genCuts via markClean only after the generation's manifest is
// durably installed, and an export never does. partsWritten and
// rowsWritten count emitted stripes and rows across all tables.
func writeGeneration(w io.Writer, tables []*Table, full bool) (cuts []genCut, tablesWritten, partsWritten, rowsWritten int, err error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(genMagic); err != nil {
		return nil, 0, 0, 0, err
	}
	// First pass: which tables have stripes to emit? A table going dirty
	// between this pass and its barrier below simply waits for the next
	// checkpoint — its records are in the just-rotated WAL segment.
	emit := make([]*Table, 0, len(tables))
	for _, t := range tables {
		if full || t.dirtyParts() > 0 {
			emit = append(emit, t)
		}
	}
	writeUvarint(bw, uint64(len(emit)))
	for _, t := range emit {
		cut, parts, rows, err := generationTable(bw, t, full)
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("generation %q: %w", t.name, err)
		}
		cuts = append(cuts, genCut{table: t, cuts: cut})
		tablesWritten++
		partsWritten += parts
		rowsWritten += rows
	}
	return cuts, tablesWritten, partsWritten, rowsWritten, bw.Flush()
}

// generationTable emits one table's header and selected stripes under the
// whole-table read barrier (all partition read locks), so the header's
// index list and every stripe payload are one consistent cut. The index
// metadata lock is taken before the partition locks — the same order
// CreateIndex and resetPartition use — so a concurrent index build cannot
// deadlock against the capture.
func generationTable(bw *bufio.Writer, t *Table, full bool) ([]partCut, int, int, error) {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	for _, p := range t.parts {
		p.mu.RLock()
	}
	defer func() {
		for _, p := range t.parts {
			p.mu.RUnlock()
		}
	}()

	writeString(bw, t.name)
	writeUvarint(bw, uint64(len(t.parts)))
	writeColumns(bw, t.schema.Cols)
	writeString(bw, t.schema.Cols[t.schema.PK].Name)
	cols := make([]string, 0, len(t.idxMeta))
	for c := range t.idxMeta {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	writeUvarint(bw, uint64(len(cols)))
	for _, c := range cols {
		writeString(bw, c)
		bw.WriteByte(byte(t.idxMeta[c]))
	}

	cuts := make([]partCut, 0, len(t.parts))
	for pi, p := range t.parts {
		if full || p.epoch != p.snapEpoch {
			cuts = append(cuts, partCut{part: pi, epoch: p.epoch})
		}
	}
	rows := 0
	writeUvarint(bw, uint64(len(cuts)))
	for _, c := range cuts {
		p := t.parts[c.part]
		writeUvarint(bw, uint64(c.part))
		writeUvarint(bw, uint64(p.rows))
		rows += p.rows
		for _, row := range p.heap {
			if row == nil {
				continue
			}
			writeRow(bw, row)
		}
	}
	return cuts, len(cuts), rows, bw.Flush()
}

// applyGeneration replays one generation stream onto db: tables are
// created if missing (with their recorded partition count and indexes) and
// every stripe the generation carries replaces the stripe's previous
// contents. Any failure is ErrCorrupt — a generation referenced by the
// manifest must apply completely or recovery fails loudly.
func applyGeneration(db *DB, r io.Reader) error {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(genMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != genMagic {
		return fmt.Errorf("generation header: %w", ErrCorrupt)
	}
	nTables, err := binary.ReadUvarint(br)
	if err != nil || nTables > 1<<16 {
		return fmt.Errorf("generation table count: %w", ErrCorrupt)
	}
	for i := uint64(0); i < nTables; i++ {
		if err := applyGenerationTable(db, br); err != nil {
			return err
		}
	}
	return nil
}

// readTableHeader decodes a table's preamble: name, partition count,
// schema.
func readTableHeader(br *bufio.Reader) (name string, parts uint64, schema *Schema, err error) {
	if name, err = readString(br); err != nil {
		return "", 0, nil, fmt.Errorf("generation table name: %w", ErrCorrupt)
	}
	parts, err = binary.ReadUvarint(br)
	if err != nil || parts == 0 || parts > MaxPartitions {
		return name, 0, nil, fmt.Errorf("generation %q partitions: %w", name, ErrCorrupt)
	}
	ncols, err := binary.ReadUvarint(br)
	if err != nil || ncols == 0 || ncols > 1<<12 {
		return name, 0, nil, fmt.Errorf("generation %q columns: %w", name, ErrCorrupt)
	}
	cols, err := readN(br, ncols, readColumn)
	if err != nil {
		return name, 0, nil, fmt.Errorf("generation %q column: %w", name, ErrCorrupt)
	}
	pkName, err := readString(br)
	if err != nil {
		return name, 0, nil, fmt.Errorf("generation %q pk: %w", name, ErrCorrupt)
	}
	schema, err = NewSchema(cols, pkName)
	if err != nil {
		return name, 0, nil, fmt.Errorf("generation %q schema: %w: %w", name, ErrCorrupt, err)
	}
	return name, parts, schema, nil
}

// readIndexDefs decodes the index list and declares each index on t,
// tolerating ones that already exist (a delta chained onto a base that
// declared them, or a recovered table).
func readIndexDefs(br *bufio.Reader, t *Table) error {
	nIdx, err := binary.ReadUvarint(br)
	if err != nil || nIdx > 1<<12 {
		return fmt.Errorf("generation %q indexes: %w", t.name, ErrCorrupt)
	}
	for i := uint64(0); i < nIdx; i++ {
		col, err := readString(br)
		if err != nil {
			return fmt.Errorf("generation %q index col: %w", t.name, ErrCorrupt)
		}
		kind, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("generation %q index kind: %w", t.name, ErrCorrupt)
		}
		if err := t.CreateIndex(col, IndexKind(kind)); err != nil && !errors.Is(err, ErrExists) {
			return fmt.Errorf("generation %q index %q: %w: %w", t.name, col, ErrCorrupt, err)
		}
	}
	return nil
}

func applyGenerationTable(db *DB, br *bufio.Reader) error {
	name, parts, schema, err := readTableHeader(br)
	if err != nil {
		return err
	}
	t, err := db.Table(name)
	if err != nil {
		if t, err = db.CreateTablePartitioned(name, schema, int(parts)); err != nil {
			return fmt.Errorf("generation %q: %w: %w", name, ErrCorrupt, err)
		}
	} else if t.Partitions() != int(parts) {
		// A delta must agree with the base it chains onto: partition counts
		// are fixed at table creation, so a mismatch is corruption.
		return fmt.Errorf("generation %q partition count %d vs table %d: %w",
			name, parts, t.Partitions(), ErrCorrupt)
	}
	if err := readIndexDefs(br, t); err != nil {
		return err
	}

	nParts, err := binary.ReadUvarint(br)
	if err != nil || nParts > parts {
		return fmt.Errorf("generation %q stripe count: %w", name, ErrCorrupt)
	}
	for i := uint64(0); i < nParts; i++ {
		pi, err := binary.ReadUvarint(br)
		if err != nil || pi >= parts {
			return fmt.Errorf("generation %q stripe index: %w", name, ErrCorrupt)
		}
		nRows, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("generation %q stripe %d rows: %w", name, pi, ErrCorrupt)
		}
		t.resetPartition(int(pi))
		for j := uint64(0); j < nRows; j++ {
			row, err := readRow(br)
			if err != nil {
				return fmt.Errorf("generation %q stripe %d row %d: %w", name, pi, j, ErrCorrupt)
			}
			if err := t.insertIntoPartition(int(pi), row); err != nil {
				return fmt.Errorf("generation %q stripe %d row %d: %w: %w", name, pi, j, ErrCorrupt, err)
			}
		}
	}
	return nil
}
