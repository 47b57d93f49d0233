// Package harness runs the benchmark: it builds and launches the real
// scilens-server binary, drives the four workloads over loopback HTTP,
// checks what came back, and reduces the client samples and the server
// scrapes to the metrics BENCHMARK.json names.
package harness

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/bench/gen"
)

// Env is where a run keeps its files: everything lives under the
// benchmark's own out/ directory, never in the repository root.
type Env struct {
	// Root is the repository checkout (the parent of the bench directory).
	Root string
	// Out is bench/out.
	Out string
	// Bench is BENCHMARK.json of the checkout.
	Bench *Benchmark
	// ServerBin is the built scilens-server.
	ServerBin string
	// BuildSeconds is how long the server build took (near zero when the
	// build cache was warm).
	BuildSeconds float64

	mu      sync.Mutex
	servers []*Server
	tmp     string // this run's scratch directory under Out/tmp
}

// NewEnv reads BENCHMARK.json of the checkout around benchDir, builds
// scilens-server from that checkout and makes the run's scratch directory.
func NewEnv(ctx context.Context, benchDir string) (*Env, error) {
	abs, err := filepath.Abs(benchDir)
	if err != nil {
		return nil, err
	}
	e := &Env{Root: filepath.Dir(abs), Out: filepath.Join(abs, "out")}
	if e.Bench, err = LoadBenchmark(filepath.Join(e.Root, "BENCHMARK.json")); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(e.Out, "tmp"), 0o755); err != nil {
		return nil, err
	}
	if e.tmp, err = os.MkdirTemp(filepath.Join(e.Out, "tmp"), "run-"); err != nil {
		return nil, err
	}
	e.ServerBin = filepath.Join(e.Out, "bin", "scilens-server")
	start := time.Now()
	build := exec.CommandContext(ctx, "go", "build", "-o", e.ServerBin, "./cmd/scilens-server")
	build.Dir = e.Root
	build.Env = append(os.Environ(), "GOWORK=off")
	if out, err := build.CombinedOutput(); err != nil {
		e.Close()
		return nil, fmt.Errorf("build scilens-server in %s: %w\n%s", e.Root, err, out)
	}
	e.BuildSeconds = time.Since(start).Seconds()
	return e, nil
}

// Close kills every server still running and removes the run's scratch
// directory (data dirs and server logs). It is the one exit path: normal
// return, failed check and SIGINT all come through here.
func (e *Env) Close() {
	_ = e.Sweep() // RemoveAll below is what has to succeed
	_ = os.RemoveAll(e.tmp)
}

// TempDir makes a fresh directory under the scratch directory.
func (e *Env) TempDir(pattern string) (string, error) {
	return os.MkdirTemp(e.tmp, pattern)
}

// Sweep kills every server and empties the scratch directory, between the
// runs of one process: a finished run's data dirs must not sit on disk,
// being written back, under the next run's fsyncs.
func (e *Env) Sweep() error {
	e.mu.Lock()
	servers := e.servers
	e.servers = nil
	e.mu.Unlock()
	for _, s := range servers {
		s.Kill()
	}
	if err := os.RemoveAll(e.tmp); err != nil {
		return err
	}
	return os.Mkdir(e.tmp, 0o755)
}

// Spec is how one server is launched.
type Spec struct {
	// DataDir makes the store durable, with the flush policy every durable
	// workload shares: fsync on the interval flusher, no checkpoint timer,
	// a checkpoint per 8 MiB of WAL — so background work is a function of
	// bytes written, not of wall time.
	DataDir string
	// ReplicaOf makes the server a follower of that base URL.
	ReplicaOf string
}

func (sp Spec) args(addr, debugAddr string) []string {
	a := []string{
		"-addr", addr, "-debug-addr", debugAddr,
		"-seed", strconv.Itoa(gen.BootSeed),
		"-days", strconv.Itoa(gen.BootDays),
		"-scale", strconv.FormatFloat(gen.BootRateScale, 'g', -1, 64),
		"-reactions", strconv.FormatFloat(gen.BootReactionScale, 'g', -1, 64),
	}
	if sp.DataDir != "" {
		a = append(a, "-data-dir", sp.DataDir, "-fsync", "interval",
			"-checkpoint-interval", "0", "-checkpoint-wal-bytes", "8388608")
	}
	if sp.ReplicaOf != "" {
		a = append(a, "-replica-of", sp.ReplicaOf)
	}
	return a
}

// Server is one launched scilens-server process.
type Server struct {
	Spec      Spec
	Addr      string // API listener, host:port
	DebugAddr string // /metrics and pprof listener
	// SetupSeconds is the time from exec to the first 200 from /api/health.
	SetupSeconds float64

	cmd    *exec.Cmd
	logf   *os.File
	exited chan struct{}
}

// URL is the server's API base URL.
func (s *Server) URL() string { return "http://" + s.Addr }

// PID is the server's process id.
func (s *Server) PID() int { return s.cmd.Process.Pid }

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the server binds it; nothing else on this box races for
// loopback ports during a run.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// Launch starts a server and waits until it answers /api/health with 200.
// The child gets its own process group so that a kill reaches anything it
// might start, and its output goes to a log in the scratch directory.
func (e *Env) Launch(ctx context.Context, sp Spec) (*Server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	debugAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(e.tmp, "server-*.log")
	if err != nil {
		return nil, err
	}
	s := &Server{Spec: sp, Addr: addr, DebugAddr: debugAddr, logf: logf, exited: make(chan struct{})}
	s.cmd = exec.Command(e.ServerBin, sp.args(addr, debugAddr)...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, fmt.Errorf("start scilens-server: %w", err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed server carries nothing
		_ = logf.Close() // the server wrote it, not us
		close(s.exited)
	}()
	e.mu.Lock()
	e.servers = append(e.servers, s)
	e.mu.Unlock()

	conn := NewConn(addr)
	defer conn.Close()
	health := gen.Get("/api/health")
	deadline := time.After(60 * time.Second)
	for {
		if status, _, err := conn.Do(health); err == nil && status == 200 {
			s.SetupSeconds = time.Since(start).Seconds()
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("scilens-server exited during start-up:\n%s", s.logTail())
		case <-deadline:
			s.Kill()
			return nil, fmt.Errorf("scilens-server not healthy after 60s:\n%s", s.logTail())
		case <-ctx.Done():
			s.Kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// logTail returns the end of the server's log for an error message.
func (s *Server) logTail() string {
	b, err := os.ReadFile(s.logf.Name())
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// Kill ends the server's process group at once and waits for it. A server
// that has been reaped is left alone: its group id may by now belong to
// another server this harness launched.
func (s *Server) Kill() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL) // gone since the check is fine
	<-s.exited
}

// Terminate sends SIGTERM — the server drains its pipeline and, when
// durable, writes a final checkpoint — and waits for a clean exit.
func (s *Server) Terminate() error {
	if err := syscall.Kill(s.cmd.Process.Pid, syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
	case <-time.After(60 * time.Second):
		s.Kill()
		return errors.New("scilens-server ignored SIGTERM for 60s")
	}
	if code := s.cmd.ProcessState.ExitCode(); code != 0 {
		return fmt.Errorf("scilens-server exited %d after SIGTERM:\n%s", code, s.logTail())
	}
	return nil
}

// CPUSeconds is the process's utime+stime so far.
func (s *Server) CPUSeconds() (float64, error) {
	return procCPUSeconds(s.PID())
}
