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
	for _, header := range []string{"Figure 3", "Figure 4", "Figure 5 (left)", "Figure 5 (right)", "Claim C1", "Claim C2"} {
		if !bytes.Contains(first, []byte("=== "+header)) {
			t.Errorf("stdout lacks the %q section", header)
		}
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	if _, code := runBin(t, "-no-such-flag"); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
}
