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

// bin is the scilens-eval binary built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	os.Exit(buildAndRun(m))
}

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "scilens-eval-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	bin = filepath.Join(dir, "scilens-eval")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build scilens-eval: %v\n%s", err, out)
		return 1
	}
	return m.Run()
}

// runBin executes the binary and returns its stdout and exit status.
func runBin(t *testing.T, args ...string) ([]byte, int) {
	t.Helper()
	return runBinEnv(t, nil, args...)
}

// runBinEnv is runBin with env added to the test's environment.
func runBinEnv(t *testing.T, env []string, args ...string) ([]byte, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
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

// TestStdoutByteIdentical: every artifact, claim C1 included, prints the
// same bytes on stdout for one seed; the wall-clock figures go to stderr.
// Both runs must also equal testdata/seed1.golden, the record of what the
// repository reproduces. To re-record it after an intended change:
//
//	go run ./cmd/scilens-eval -days 6 -scale 0.1 -raters 4 > cmd/scilens-eval/testdata/seed1.golden
func TestStdoutByteIdentical(t *testing.T) {
	args := []string{"-days", "6", "-scale", "0.1", "-raters", "4"}
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
		t.Errorf("stdout differs from testdata/seed1.golden:\n%s", first)
	}
	for _, header := range []string{"=== Figure 3", "=== Figure 4", "=== Figure 5 (left)", "=== Figure 5 (right)", "=== Claim C1", "=== Claim C2", topicsHeader} {
		if !bytes.Contains(first, []byte(header)) {
			t.Errorf("stdout lacks the %q section", header)
		}
	}
}

// topicsHeader opens the -fig topics block.
const topicsHeader = "daily maintenance cycle (§3.3):"

// TestTopicsGolden pins the daily maintenance cycle's report for one
// seed: its counts, the topic tree and the held-out tags. The compute
// pool is GOMAXPROCS wide and the report must not depend on the width,
// so the two runs use one and seven. Both must equal
// testdata/topics-seed1.golden. To re-record it after an intended change:
//
//	go run ./cmd/scilens-eval -fig topics -seed 1 -days 4 -scale 0.2 -reactions 0.2 > cmd/scilens-eval/testdata/topics-seed1.golden
func TestTopicsGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "topics-seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []string{"1", "7"} {
		out, code := runBinEnv(t, []string{"GOMAXPROCS=" + procs},
			"-fig", "topics", "-seed", "1", "-days", "4", "-scale", "0.2", "-reactions", "0.2")
		if code != 0 {
			t.Fatalf("GOMAXPROCS=%s: exit status %d", procs, code)
		}
		if !bytes.Equal(out, golden) {
			t.Errorf("GOMAXPROCS=%s: stdout differs from testdata/topics-seed1.golden:\n%s", procs, out)
		}
	}
}

// TestBadFlagExitsTwo: an unknown flag, and an unknown -fig, which is
// refused before the corpus is built.
func TestBadFlagExitsTwo(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-fig", "6"}} {
		out, code := runBin(t, args...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2", args, code)
		}
		if len(out) != 0 {
			t.Errorf("%v: printed on stdout:\n%s", args, out)
		}
	}
}

// TestTopicsBadFlagExitsTwo: the daily maintenance cycle's invocation
// with an unknown flag exits 2 and prints nothing on stdout.
func TestTopicsBadFlagExitsTwo(t *testing.T) {
	out, code := runBin(t, "-fig", "topics", "-no-such-flag")
	if code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	if len(out) != 0 {
		t.Errorf("printed on stdout:\n%s", out)
	}
}
