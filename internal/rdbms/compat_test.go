package rdbms

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// The tests in this file pin the on-disk format and the stripe routing
// from outside the representation: the golden strings and the fixture
// directory under testdata/ were produced by the code as of PR 16 (the
// 80-byte Value, map-per-key hash index) and must never be regenerated
// from the code under test.

// goldenRow holds one value of every kind, the edge values of each, and
// NULL.
func goldenRow() Row {
	return Row{
		Int(math.MinInt64),
		Int(math.MaxInt64),
		Int(1234567),
		Float(math.Copysign(0, -1)),
		Float(math.NaN()),
		Float(math.Inf(1)),
		Float(3.25),
		String(""),
		String("art-000054 ü"),
		Bool(true),
		Bool(false),
		Time(time.Time{}),
		Time(time.Date(2024, 3, 9, 17, 4, 5, 123456789, time.FixedZone("EST", -5*3600))),
		Time(time.Date(1931, 1, 2, 3, 4, 5, 6, time.UTC)),
		Null(),
	}
}

const goldenRowHex = "0f" +
	"000000000000000080" +
	"00ffffffffffffff7f" +
	"0087d6120000000000" +
	"010000000000000080" +
	"01010000000000f87f" +
	"01000000000000f07f" +
	"010000000000000a40" +
	"0200" +
	"020d6172742d30303030353420c3bc" +
	"0301" +
	"0300" +
	"0400001a3deb03b2a1" +
	"0415dfbddcce37bb17" +
	"040632b18da6c7ebee" +
	"ff"

var goldenHashKeys = []string{
	"i-1y2p0ij32e8e8",
	"i1y2p0ij32e8e7",
	"iqglj",
	"f-0p-1074",
	"fNaN",
	"f+Inf",
	"f7318349394477056p-51",
	"s",
	"sart-000054 ü",
	"b1",
	"b0",
	"t-1fmlvpbbdw2yo",
	"tczpk5ioqukut",
	"t-9cloaw1uw0sa",
	"\x00null",
}

var goldenStripes = []uint32{3, 7, 2, 1, 6, 5, 0, 2, 2, 4, 7, 3, 4, 2, 2}

func TestGoldenEncoding(t *testing.T) {
	row := goldenRow()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	n := writeRow(bw, row)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Errorf("writeRow reported %d bytes, wrote %d", n, buf.Len())
	}
	if got := hex.EncodeToString(buf.Bytes()); got != goldenRowHex {
		t.Errorf("writeRow bytes drifted:\n got %s\nwant %s", got, goldenRowHex)
	}
	for i, v := range row {
		k := v.hashKey()
		if k != goldenHashKeys[i] {
			t.Errorf("value %d (%v): hashKey %q, want %q", i, v, k, goldenHashKeys[i])
		}
		if got := fnvOf(k) % 8; got != goldenStripes[i] {
			t.Errorf("value %d (%v): routes to stripe %d, want %d", i, v, got, goldenStripes[i])
		}
	}

	// The golden bytes decode back to the row they were written from.
	raw, err := hex.DecodeString(goldenRowHex)
	if err != nil {
		t.Fatal(err)
	}
	back, err := readRow(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatalf("readRow(golden): %v", err)
	}
	for i := range row {
		if i == 4 { // NaN equals nothing, itself included
			if !math.IsNaN(back[i].Float()) {
				t.Errorf("value %d: decoded %v, want NaN", i, back[i])
			}
			continue
		}
		if !back[i].Equal(row[i]) {
			t.Errorf("value %d: decoded %v, want %v", i, back[i], row[i])
		}
	}
}

// compatSchema has a column of every kind; s carries a hash index and t an
// ordered one.
func compatSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema([]Column{
		{Name: "id", Type: TString},
		{Name: "n", Type: TInt},
		{Name: "f", Type: TFloat},
		{Name: "s", Type: TString},
		{Name: "b", Type: TBool},
		{Name: "t", Type: TTime},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func compatRow(i int) Row {
	base := time.Date(2019, 5, 13, 8, 0, 0, 0, time.UTC)
	return Row{
		String(fmt.Sprintf("row-%04d", i)),
		Int(int64(i*i) - 500),
		Float(float64(i) / 8),
		String(fmt.Sprintf("group-%d", i%5)),
		Bool(i%3 == 0),
		Time(base.Add(time.Duration(i) * 37 * time.Minute)),
	}
}

// buildCompatDir runs a fixed single-threaded script against a fresh data
// directory: a base generation, a delta generation and a WAL tail, with
// inserts, updates, a pk move, Mutate, deletes and the edge values of
// every kind. It returns the rows the directory must recover to.
func buildCompatDir(t testing.TB, dir string) map[string]Row {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	db, err := OpenWithOptions(dir, Options{})
	check(err)
	tbl, err := db.CreateTable("every", compatSchema(t))
	check(err)
	check(tbl.CreateIndex("s", HashIndex))
	check(tbl.CreateIndex("t", OrderedIndex))
	want := map[string]Row{}
	put := func(r Row) {
		check(tbl.Upsert(r))
		want[r[0].Str()] = r
	}
	g := goldenRow()
	edges := []Row{
		{String("edge-min"), g[0], g[3], g[7], g[9], g[11]},
		{String("edge-max"), g[1], g[5], g[8], g[10], g[12]},
		{String("edge-old"), g[2], g[6], g[8], g[10], g[13]},
		{String("edge-null"), Null(), Null(), Null(), Null(), Null()},
	}
	for _, r := range edges {
		put(r)
	}
	for i := 0; i < 40; i++ {
		put(compatRow(i))
	}
	_, err = db.Checkpoint()
	check(err)

	for i := 40; i < 60; i++ {
		put(compatRow(i))
	}
	for i := 0; i < 10; i++ { // in-place updates that move both indexes
		r := compatRow(i)
		r[3] = String("regrouped")
		r[5] = Time(r[5].Time().Add(-72 * time.Hour))
		put(r)
	}
	for i := 10; i < 14; i++ {
		check(tbl.Delete(String(fmt.Sprintf("row-%04d", i))))
		delete(want, fmt.Sprintf("row-%04d", i))
	}
	_, err = db.Checkpoint()
	check(err)

	for i := 60; i < 75; i++ {
		put(compatRow(i))
	}
	moved := compatRow(20)
	moved[0] = String("row-moved")
	check(update(tbl, String("row-0020"), moved))
	delete(want, "row-0020")
	want["row-moved"] = moved
	check(tbl.Mutate(String("row-0021"), func(r Row) (Row, error) {
		r[1] = Int(r[1].Int() + 1000)
		r[4] = Null()
		want["row-0021"] = r.Clone()
		return r, nil
	}))
	check(tbl.Delete(String("edge-old")))
	delete(want, "edge-old")
	check(db.Close())
	return want
}

const compatFixture = "testdata/parent-pr16"

// dataFiles lists a data directory's files (relative, sorted) minus the
// advisory lock, which holds nothing.
func dataFiles(t testing.TB, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || info.Name() == lockFile {
			return nil
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		out = append(out, rel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// TestCrossVersionRecovery opens a directory written by the PR 16 code and
// reads every row back equal, through the heap, the hash index and the
// ordered index.
func TestCrossVersionRecovery(t *testing.T) {
	want := buildCompatDir(t, t.TempDir())
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(compatFixture)); err != nil {
		t.Fatal(err)
	}
	db, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatalf("open parent-written directory: %v", err)
	}
	defer db.Close()
	tbl, err := db.Table("every")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != len(want) {
		t.Errorf("recovered %d rows, want %d", tbl.Len(), len(want))
	}
	groups := map[string]int{}
	for id, w := range want {
		got, err := tbl.Get(String(id))
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if !got.Identical(w) {
			t.Errorf("%s: recovered %v, want %v", id, got, w)
		}
		if !w[3].IsNull() {
			groups[w[3].Str()]++
		}
	}
	for g, n := range groups {
		rows, err := lookupEq(tbl, "s", String(g))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != n {
			t.Errorf("hash index s=%q: %d rows, want %d", g, len(rows), n)
		}
	}
	var prev Value
	seen := 0
	err = tbl.Range("t", nil, nil, func(r Row) bool {
		if c, cerr := prev.Compare(r[5]); cerr != nil || c > 0 {
			t.Errorf("ordered index t: %v after %v", r[5], prev)
		}
		prev = r[5]
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(want) {
		t.Errorf("ordered index t yields %d rows, want %d", seen, len(want))
	}
}

// TestOnDiskBytesUnchanged replays the script that wrote the fixture and
// compares every file byte for byte: MANIFEST, both generations and the
// WAL tail.
func TestOnDiskBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	buildCompatDir(t, dir)
	got, want := dataFiles(t, dir), dataFiles(t, compatFixture)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("files written %v, fixture has %v", got, want)
	}
	for _, rel := range want {
		a, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(compatFixture, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: %d bytes written differ from the fixture's %d", rel, len(a), len(b))
		}
	}
}
