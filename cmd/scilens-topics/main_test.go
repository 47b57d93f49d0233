package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// bin is the scilens-topics binary built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	os.Exit(buildAndRun(m))
}

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "scilens-topics-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	bin = filepath.Join(dir, "scilens-topics")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build scilens-topics: %v\n%s", err, out)
		return 1
	}
	return m.Run()
}

// runBin executes the binary and returns its stdout and exit status.
func runBin(t *testing.T, args ...string) ([]byte, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.Bytes(), 0
	case errors.As(err, &exit):
		return stdout.Bytes(), exit.ExitCode()
	default:
		t.Fatalf("run %v: %v\n%s", args, err, stderr.Bytes())
		return nil, -1
	}
}

// TestGoldenOutput pins the whole report for one seed: the daily cycle's
// counts, the topic tree and the held-out tags. Two runs must agree byte
// for byte, and both must equal testdata/seed1.golden. To re-record it
// after an intended change:
//
//	go run ./cmd/scilens-topics -seed 1 -days 4 -scale 0.2 > cmd/scilens-topics/testdata/seed1.golden
func TestGoldenOutput(t *testing.T) {
	args := []string{"-seed", "1", "-days", "4", "-scale", "0.2"}
	first, code := runBin(t, args...)
	if code != 0 {
		t.Fatalf("exit status %d", code)
	}
	second, code := runBin(t, args...)
	if code != 0 {
		t.Fatalf("second run: exit status %d", code)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("two runs of one seed differ:\n%s\n---\n%s", first, second)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, golden) {
		t.Errorf("output differs from testdata/seed1.golden:\n%s", first)
	}
}

// TestGoldenOutputAnyWorkers: the compute pool's width changes how the
// jobs split their input, never what they print.
func TestGoldenOutputAnyWorkers(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "7"} {
		out, code := runBin(t, "-seed", "1", "-days", "4", "-scale", "0.2", "-workers", workers)
		if code != 0 {
			t.Fatalf("-workers %s: exit status %d", workers, code)
		}
		if !bytes.Equal(out, golden) {
			t.Errorf("-workers %s: output differs from testdata/seed1.golden:\n%s", workers, out)
		}
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	if _, code := runBin(t, "-no-such-flag"); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
}
