package rdbms

import (
	"errors"
	"fmt"
)

// Engine-level sentinel errors.
var (
	// ErrNotFound is returned when a row, table or index does not exist.
	ErrNotFound = errors.New("rdbms: not found")
	// ErrDuplicate is returned on primary-key or unique-index violations.
	ErrDuplicate = errors.New("rdbms: duplicate key")
	// ErrTypeMismatch is returned when a value's type conflicts with the
	// schema or a comparison partner.
	ErrTypeMismatch = errors.New("rdbms: type mismatch")
	// ErrSchema is returned for malformed schemas or rows.
	ErrSchema = errors.New("rdbms: schema violation")
	// ErrExists is returned when creating an object that already exists.
	ErrExists = errors.New("rdbms: already exists")
)

// Column describes one schema column.
type Column struct {
	// Name is the column name (unique within the table).
	Name string
	// Type is the column type.
	Type Type
	// NotNull forbids NULL values when true.
	NotNull bool
}

// Schema is an ordered list of columns plus the primary-key column index.
type Schema struct {
	// Cols are the columns, in storage order.
	Cols []Column
	// PK is the index into Cols of the primary-key column. The PK column
	// is implicitly NOT NULL and unique.
	PK int

	byName map[string]int
}

// NewSchema validates and builds a schema. The pk column must exist.
func NewSchema(cols []Column, pkName string) (*Schema, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("no columns: %w", ErrSchema)
	}
	s := &Schema{Cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range s.Cols {
		if c.Name == "" {
			return nil, fmt.Errorf("column %d unnamed: %w", i, ErrSchema)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("duplicate column %q: %w", c.Name, ErrSchema)
		}
		s.byName[c.Name] = i
	}
	pk, ok := s.byName[pkName]
	if !ok {
		return nil, fmt.Errorf("pk column %q missing: %w", pkName, ErrSchema)
	}
	s.PK = pk
	s.Cols[pk].NotNull = true
	return s, nil
}

// ColIndex returns the index of the named column.
func (s *Schema) ColIndex(name string) (int, error) {
	i, ok := s.byName[name]
	if !ok {
		return 0, fmt.Errorf("column %q: %w", name, ErrNotFound)
	}
	return i, nil
}

// MaxStringBytes bounds string cell sizes. It matches the WAL/snapshot
// decoder's corruption guard: a string the writer accepts must always be
// one the recovery reader accepts, or a legitimate oversized write would
// read back as log corruption and truncate the tail.
const MaxStringBytes = 1 << 24

// Validate checks a row against the schema (arity, types, NOT NULL,
// string size bound).
func (s *Schema) Validate(r Row) error {
	if len(r) != len(s.Cols) {
		return fmt.Errorf("row arity %d != %d: %w", len(r), len(s.Cols), ErrSchema)
	}
	for i, v := range r {
		col := s.Cols[i]
		if v.IsNull() {
			if col.NotNull {
				return fmt.Errorf("column %q is NOT NULL: %w", col.Name, ErrSchema)
			}
			continue
		}
		if v.Kind() != col.Type {
			return fmt.Errorf("column %q wants %v got %v: %w",
				col.Name, col.Type, v.Kind(), ErrTypeMismatch)
		}
		if col.Type == TString && len(v.Str()) > MaxStringBytes {
			return fmt.Errorf("column %q exceeds %d bytes: %w", col.Name, MaxStringBytes, ErrSchema)
		}
	}
	return nil
}
