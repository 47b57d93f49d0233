package rdbms_test

import (
	"fmt"
	"os"

	"repro/internal/rdbms"
)

// exampleSchema builds the two-column schema the examples share.
func exampleSchema() *rdbms.Schema {
	schema, err := rdbms.NewSchema([]rdbms.Column{
		{Name: "id", Type: rdbms.TInt},
		{Name: "title", Type: rdbms.TString},
	}, "id")
	if err != nil {
		panic(err)
	}
	return schema
}

// ExampleOpenWithOptions_recovery demonstrates the durable lifecycle: a database
// opened in a directory survives the process. The first checkpoint writes
// a base snapshot generation; rows written afterwards live only in the
// WAL — and the second open recovers both, replaying
// manifest → base generation → WAL segments.
func ExampleOpenWithOptions_recovery() {
	dir, err := os.MkdirTemp("", "rdbms-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	db, err := rdbms.OpenWithOptions(dir, rdbms.Options{})
	if err != nil {
		panic(err)
	}
	tbl, err := db.CreateTable("articles", exampleSchema())
	if err != nil {
		panic(err)
	}
	tbl.Insert(rdbms.Row{rdbms.Int(1), rdbms.String("in the base generation")})
	if _, err := db.Checkpoint(); err != nil {
		panic(err)
	}
	tbl.Insert(rdbms.Row{rdbms.Int(2), rdbms.String("only in the WAL")})
	db.Close() // releases the directory; Close does not checkpoint

	re, err := rdbms.OpenWithOptions(dir, rdbms.Options{}) // recovers snapshot chain + WAL replay
	if err != nil {
		panic(err)
	}
	defer re.Close()
	reTbl, err := re.Table("articles")
	if err != nil {
		panic(err)
	}
	fmt.Println("rows recovered:", reTbl.Len())
	row, err := reTbl.Get(rdbms.Int(2))
	if err != nil {
		panic(err)
	}
	fmt.Println("wal-tail row:", row[1].Str())
	// Output:
	// rows recovered: 2
	// wal-tail row: only in the WAL
}

// ExampleDB_Checkpoint demonstrates incremental checkpoints: the first
// checkpoint writes a full base generation; later ones serialise only the
// partitions dirtied since, chaining delta generations onto the manifest.
// A checkpoint that finds nothing dirty writes no generation at all.
func ExampleDB_Checkpoint() {
	dir, err := os.MkdirTemp("", "rdbms-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	db, err := rdbms.OpenWithOptions(dir, rdbms.Options{})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("articles", exampleSchema())
	if err != nil {
		panic(err)
	}
	for i := int64(0); i < 8; i++ {
		tbl.Insert(rdbms.Row{rdbms.Int(i), rdbms.String("seed")})
	}

	first, err := db.Checkpoint()
	if err != nil {
		panic(err)
	}
	fmt.Printf("first: full=%v chain=%d\n", first.Full, first.DeltaChainLen)

	// One mutated row dirties one partition: the next checkpoint is a
	// small delta, not a re-serialisation of the corpus.
	tbl.Mutate(rdbms.Int(3), func(r rdbms.Row) (rdbms.Row, error) {
		r[1] = rdbms.String("touched")
		return r, nil
	})
	second, err := db.Checkpoint()
	if err != nil {
		panic(err)
	}
	fmt.Printf("second: full=%v chain=%d partitions=%d\n",
		second.Full, second.DeltaChainLen, second.PartitionsWritten)

	idle, err := db.Checkpoint()
	if err != nil {
		panic(err)
	}
	fmt.Printf("idle: wrote generation=%v\n", idle.Generation != 0)
	// Output:
	// first: full=true chain=0
	// second: full=false chain=1 partitions=1
	// idle: wrote generation=false
}
