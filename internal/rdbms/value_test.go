package rdbms

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestValueSize is the deterministic memory gate: a cell is one pointer,
// which also carries the kind, and one payload word. A field added to
// Value multiplies by every cell of every stored row.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
	// kind() reads a Type off p's offset into kindTags.
	for k, off := range []uintptr{
		unsafe.Offsetof(kindTags.i), unsafe.Offsetof(kindTags.f), unsafe.Offsetof(kindTags.s),
		unsafe.Offsetof(kindTags.b), unsafe.Offsetof(kindTags.t),
	} {
		if off != uintptr(k) {
			t.Errorf("the %v tag sits at offset %d", Type(k), off)
		}
	}
}

// TestRowIdentical pins Row.Identical to bit identity: what the encoder
// would write must match, and anything it would write differently must
// not, wherever the strings sit.
func TestRowIdentical(t *testing.T) {
	negZero := Float(math.Copysign(0, -1))
	nan2 := Float(math.Float64frombits(0x7ff8000000000000))
	built := String(string([]byte("art-000054 ü")))
	for _, c := range []struct {
		a, b Row
		same bool
	}{
		{Row{negZero}, Row{Float(0)}, false},
		{Row{Float(math.NaN())}, Row{nan2}, false},
		{Row{Float(math.NaN())}, Row{Float(math.NaN())}, true},
		{Row{Float(1)}, Row{Int(1)}, false},
		{Row{Bool(false)}, Row{Int(0)}, false},
		{Row{String("")}, Row{Null()}, false},
		{Row{String("")}, Row{String(string([]byte{}))}, true},
		{Row{Time(time.Time{})}, Row{Int(zeroTimeNanos)}, false},
		{Row{Time(time.Time{})}, Row{timeNanos(zeroTimeNanos)}, true},
		{Row{String("art-000054 ü")}, Row{built}, true},
		{Row{String("art-000054 ü")}, Row{String("art-000054 u")}, false},
		{Row{String("a")}, Row{String("ab")}, false},
		{Row{Null()}, Row{Null()}, true},
		{Row{Int(1), Int(2)}, Row{Int(1)}, false},
		{nil, Row{}, true},
	} {
		if got := c.a.Identical(c.b); got != c.same {
			t.Errorf("%v Identical %v = %v, want %v", c.a, c.b, got, c.same)
		}
		if got := c.b.Identical(c.a); got != c.same {
			t.Errorf("%v Identical %v = %v, want %v", c.b, c.a, got, c.same)
		}
	}
	if unsafe.StringData(built.Str()) == unsafe.StringData("art-000054 ü") {
		t.Fatal("the built string shares the literal's bytes; the pair tests nothing")
	}

	golden := goldenRow()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	writeRow(bw, golden)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := readRow(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Identical(golden) || !golden.Identical(back) {
		t.Errorf("the golden row is not Identical to its WAL round trip:\n got %v\nwant %v", back, golden)
	}
	if reflect.DeepEqual(back, golden) {
		t.Error("reflect.DeepEqual matches rows whose strings sit elsewhere; Identical is not needed")
	}
}

// TestRowLiteralDoesNotAllocate guards the constructors' inlining cost. A
// helper like benchRow, a four-cell Row literal, is inlined only while
// Int, String and Float stay cheap; inlined, its Row lives on the caller's
// stack, and not inlined it is one more heap allocation per row built.
func TestRowLiteralDoesNotAllocate(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage counters raise every function's inlining cost")
	}
	var sink int64
	if n := testing.AllocsPerRun(100, func() {
		r := benchRow(sink)
		sink += r[0].Int() + int64(len(r[1].Str())) + int64(r[3].Float())
	}); n != 0 {
		t.Errorf("building a four-cell Row allocates %v times (sink %d)", n, sink)
	}
}

// codecRoundTrip pushes v through writeValue and readValue.
func codecRoundTrip(t *testing.T, v Value) Value {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	writeValue(bw, v)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readValue(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("readValue(writeValue(%v)): %v", v, err)
	}
	return got
}

// wrongKindAccessorsZero asserts every accessor that does not belong to
// v's kind returns its zero value (Float also answers for ints).
func wrongKindAccessorsZero(t *testing.T, name string, v Value) {
	t.Helper()
	k := v.Kind()
	if v.IsNull() {
		k = Type(255)
	}
	if k != TInt && v.Int() != 0 {
		t.Errorf("%s: Int() = %d on a %v", name, v.Int(), v.Kind())
	}
	if k != TInt && k != TFloat && v.Float() != 0 {
		t.Errorf("%s: Float() = %v on a %v", name, v.Float(), v.Kind())
	}
	if k != TString && v.Str() != "" {
		t.Errorf("%s: Str() = %q on a %v", name, v.Str(), v.Kind())
	}
	if k != TBool && v.Bool() {
		t.Errorf("%s: Bool() = true on a %v", name, v.Kind())
	}
	if k != TTime && !v.Time().IsZero() {
		t.Errorf("%s: Time() = %v on a %v", name, v.Time(), v.Kind())
	}
}

func TestValueEdgeRoundTrips(t *testing.T) {
	wrongKindAccessorsZero(t, "NULL", Null())

	for _, i := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64} {
		v := Int(i)
		if v.Int() != i || v.Float() != float64(i) {
			t.Errorf("Int(%d): Int() = %d, Float() = %v", i, v.Int(), v.Float())
		}
		wrongKindAccessorsZero(t, v.String(), v)
		if !codecRoundTrip(t, v).identical(v) {
			t.Errorf("Int(%d) changes through the codec", i)
		}
	}

	negZero := math.Copysign(0, -1)
	for _, f := range []float64{negZero, 0, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.MaxFloat64} {
		v := Float(f)
		if math.Float64bits(v.Float()) != math.Float64bits(f) {
			t.Errorf("Float(%v).Float() = %v", f, v.Float())
		}
		wrongKindAccessorsZero(t, v.String(), v)
		if !codecRoundTrip(t, v).identical(v) {
			t.Errorf("Float(%v) changes through the codec", f)
		}
	}
	if Float(math.NaN()).Equal(Float(math.NaN())) {
		t.Error("NaN equals NaN")
	}
	if !Float(negZero).Equal(Float(0)) {
		t.Error("-0.0 does not equal 0.0")
	}
	if c, err := Float(negZero).Compare(Float(0)); err != nil || c != 0 {
		t.Errorf("Compare(-0.0, 0.0) = %d, %v", c, err)
	}
	if c, err := Float(math.Inf(-1)).Compare(Float(-math.MaxFloat64)); err != nil || c != -1 {
		t.Errorf("Compare(-Inf, -MaxFloat64) = %d, %v", c, err)
	}

	for _, s := range []string{"", "x", "naïve \x00 bytes"} {
		v := String(s)
		if v.Str() != s {
			t.Errorf("String(%q).Str() = %q", s, v.Str())
		}
		wrongKindAccessorsZero(t, v.String(), v)
		if !codecRoundTrip(t, v).identical(v) {
			t.Errorf("String(%q) changes through the codec", s)
		}
	}
	if String("").IsNull() || String("").Equal(Null()) {
		t.Error(`String("") is NULL`)
	}

	for _, b := range []bool{false, true} {
		v := Bool(b)
		if v.Bool() != b {
			t.Errorf("Bool(%v).Bool() = %v", b, v.Bool())
		}
		wrongKindAccessorsZero(t, v.String(), v)
		if !codecRoundTrip(t, v).identical(v) {
			t.Errorf("Bool(%v) changes through the codec", b)
		}
	}
}

func TestTimeValueEdges(t *testing.T) {
	plus9 := time.FixedZone("JST", 9*3600)
	times := map[string]time.Time{
		"zero":      {},
		"non-UTC":   time.Date(2024, 3, 9, 17, 4, 5, 123456789, plus9),
		"monotonic": time.Now(),
		"pre-1970":  time.Date(1931, 1, 2, 3, 4, 5, 6, time.UTC),
		"epoch":     time.Unix(0, 0),
		"earliest":  time.Unix(0, math.MinInt64),
		"latest":    time.Unix(0, math.MaxInt64),
	}
	for name, in := range times {
		v := Time(in)
		got := v.Time()
		if !got.Equal(in) {
			t.Errorf("%s: Time(%v).Time() = %v", name, in, got)
		}
		if got.IsZero() != in.IsZero() {
			t.Errorf("%s: IsZero %v became %v", name, in.IsZero(), got.IsZero())
		}
		if got.Location() != time.UTC {
			t.Errorf("%s: location %v, want UTC", name, got.Location())
		}
		wrongKindAccessorsZero(t, name, v)
		// What a recovered or replicated row holds is what memory holds:
		// the same Value, and the same time.Time out of it, bit for bit.
		back := codecRoundTrip(t, v)
		if !back.identical(v) {
			t.Errorf("%s: %v changes through the codec", name, v)
		}
		if !reflect.DeepEqual(back.Time(), got) {
			t.Errorf("%s: accessor gives %#v in memory, %#v once recovered", name, got, back.Time())
		}
		if !v.Equal(back) {
			t.Errorf("%s: not Equal to its recovered self", name)
		}
		if c, err := v.Compare(back); err != nil || c != 0 {
			t.Errorf("%s: Compare with its recovered self = %d, %v", name, c, err)
		}
	}

	// Compare agrees with time.Time.Compare across every pair, the zero
	// time (year 1) sorting first although its sentinel falls in 1754.
	for an, a := range times {
		for bn, b := range times {
			got, err := Time(a).Compare(Time(b))
			if err != nil || got != a.Compare(b) {
				t.Errorf("Compare(%s, %s) = %d, %v; time.Time says %d", an, bn, got, err, a.Compare(b))
			}
			if eq := Time(a).Equal(Time(b)); eq != a.Equal(b) {
				t.Errorf("Equal(%s, %s) = %v; time.Time says %v", an, bn, eq, a.Equal(b))
			}
		}
	}

	if zeroTimeNanos != (time.Time{}).UnixNano() {
		t.Errorf("zeroTimeNanos = %d, but the log has always held %d for the zero time",
			zeroTimeNanos, (time.Time{}).UnixNano())
	}
	if got := Time(time.Time{}).String(); got != "0001-01-01T00:00:00Z" {
		t.Errorf("zero time renders as %s", got)
	}
	if got := Time(times["non-UTC"]).String(); got != "2024-03-09T08:04:05.123456789Z" {
		t.Errorf("non-UTC time renders as %s", got)
	}
}

// TestHash32MatchesHashKey pins hash32 to its definition: FNV-1a over the
// hashKey string, for the edge values of every kind and a random sweep —
// and without allocating, which is the reason it exists.
func TestHash32MatchesHashKey(t *testing.T) {
	vals := append(goldenRow(),
		Int(0), Int(-1), Int(35), Int(36),
		Float(0), Float(math.Inf(-1)), Float(math.SmallestNonzeroFloat64), Float(-math.MaxFloat64),
		Float(math.Float64frombits(0x7ff8000000000000)), // a NaN with another payload
		String("s"), String("\x00null"), String(strings.Repeat("long ", 100)),
		Time(time.Unix(0, 0)), Time(time.Unix(0, math.MaxInt64)), timeNanos(math.MinInt64),
	)
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 20000; i++ {
		switch n := rng.Uint64(); i % 5 {
		case 0:
			vals = append(vals, Int(int64(n)>>(n%64)))
		case 1:
			vals = append(vals, Float(math.Float64frombits(n)))
		case 2:
			b := make([]byte, n%70)
			rng.Read(b)
			vals = append(vals, String(string(b)))
		case 3:
			vals = append(vals, Bool(n%2 == 0))
		case 4:
			vals = append(vals, timeNanos(int64(n)))
		}
	}
	for _, v := range vals {
		if got, want := v.hash32(), fnvOf(v.hashKey()); got != want {
			t.Fatalf("%v: hash32 = %#x, fnvOf(hashKey %q) = %#x", v, got, v.hashKey(), want)
		}
	}
	var sink uint32
	if n := testing.AllocsPerRun(10, func() {
		for _, v := range vals[:200] {
			sink += v.hash32()
		}
	}); n != 0 {
		t.Errorf("hash32 allocates %v times per 200 values (sink %d)", n, sink)
	}
}

// TestSameKey pins index key identity to hashKey equality where it parts
// from Equal: every NaN is one key, the two zeros are two, NULL is a key,
// kinds never mix.
func TestSameKey(t *testing.T) {
	nan2 := Float(math.Float64frombits(0x7ff8000000000000))
	negZero := Float(math.Copysign(0, -1))
	for _, c := range []struct {
		a, b Value
		same bool
	}{
		{Float(math.NaN()), Float(math.NaN()), true},
		{Float(math.NaN()), nan2, true},
		{Float(math.NaN()), Float(math.Inf(1)), false},
		{Float(0), negZero, false},
		{negZero, negZero, true},
		{Float(1), Float(1), true},
		{Float(1), Int(1), false},
		{Null(), Null(), true},
		{Null(), Int(0), false},
		{Null(), String(""), false},
		{String(""), String(""), true},
		{String("a"), String("b"), false},
		{String("1"), Int(1), false},
		{Int(1), Int(1), true},
		{Int(1), Bool(true), false},
		{Int(0), timeNanos(0), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Time(time.Time{}), Time(time.Time{}), true},
		{Time(time.Time{}), timeNanos(0), false},
	} {
		if got := c.a.sameKey(c.b); got != c.same {
			t.Errorf("%v sameKey %v = %v, want %v", c.a, c.b, got, c.same)
		}
		if got := c.b.sameKey(c.a); got != c.same {
			t.Errorf("%v sameKey %v = %v, want %v", c.b, c.a, got, c.same)
		}
		if byKey := c.a.hashKey() == c.b.hashKey(); byKey != c.same {
			t.Errorf("%v, %v: the table says same = %v, hashKey says %v", c.a, c.b, c.same, byKey)
		}
	}
}

// TestWriteRowDoesNotAllocate guards the row encoder: it runs for every
// cell of every row, once for the WAL and again in every checkpoint that
// re-serialises the row's stripe.
func TestWriteRowDoesNotAllocate(t *testing.T) {
	row := goldenRow()
	bw := bufio.NewWriterSize(io.Discard, 1<<16)
	writeRow(bw, row)
	if n := testing.AllocsPerRun(100, func() { writeRow(bw, row) }); n != 0 {
		t.Errorf("writeRow allocates %v times per row", n)
	}
}
