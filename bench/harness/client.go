package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/bench/gen"
	"repro/bench/measure"
)

// Conn is one keep-alive HTTP/1.1 connection that sends pre-rendered
// request bytes and reads the reply. It exists so that the load generator
// spends its share of two cores on the server's work rather than on
// net/http's client machinery; replies are still parsed by net/http.
type Conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

// NewConn makes a connection to addr that dials on first use.
func NewConn(addr string) *Conn { return &Conn{addr: addr} }

// Do sends one request and returns the reply's status and body. The body
// is valid until the next Do. A transport error closes the connection; the
// next Do dials again.
func (c *Conn) Do(request []byte) (status int, body []byte, err error) {
	if c.c == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.br = conn, bufio.NewReaderSize(conn, 16<<10)
	}
	if _, err := c.c.Write(request); err != nil {
		c.Close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.Close()
		return 0, nil, err
	}
	c.body = c.body[:0]
	if n := resp.ContentLength; n >= 0 {
		if int64(cap(c.body)) < n {
			c.body = make([]byte, 0, n)
		}
		c.body = c.body[:n]
		_, err = io.ReadFull(resp.Body, c.body)
	} else {
		c.body, err = io.ReadAll(resp.Body)
	}
	_ = resp.Body.Close() // read side; the body is already drained
	if err != nil {
		c.Close()
		return 0, nil, err
	}
	return resp.StatusCode, c.body, nil
}

// Close drops the connection.
func (c *Conn) Close() {
	if c.c != nil {
		_ = c.c.Close() // nothing buffered to lose on a request/reply socket
		c.c, c.br = nil, nil
	}
}

// get fetches one path from addr on a throw-away connection.
func get(addr, path string) ([]byte, error) {
	c := NewConn(addr)
	defer c.Close()
	status, body, err := c.Do(gen.Get(path))
	if err != nil {
		return nil, fmt.Errorf("GET %s%s: %w", addr, path, err)
	}
	if status != 200 {
		return nil, fmt.Errorf("GET %s%s: status %d: %s", addr, path, status, body)
	}
	return append([]byte(nil), body...), nil
}

// Health is the part of GET /api/health the benchmark reads.
type Health struct {
	Postings    int `json:"postings"`
	Reactions   int `json:"reactions"`
	QueueDepth  int `json:"queue_depth"`
	Inflight    int `json:"inflight"`
	DeadLetters int `json:"dead_letters"`
	Storage     struct {
		Rows int `json:"rows"`
	} `json:"storage"`
}

// Health reads the server's ingestion counters.
func (s *Server) Health() (Health, error) {
	var h Health
	body, err := get(s.Addr, "/api/health")
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(body, &h)
}

// WaitDrained polls /api/health until the ingestion pipeline is empty —
// nothing queued, nothing in flight — and returns the health it saw.
func (s *Server) WaitDrained(timeout time.Duration) (Health, error) {
	deadline := time.Now().Add(timeout)
	for {
		h, err := s.Health()
		if err != nil {
			return h, err
		}
		if h.QueueDepth == 0 && h.Inflight == 0 {
			return h, nil
		}
		if time.Now().After(deadline) {
			return h, fmt.Errorf("pipeline not drained after %v: depth=%d inflight=%d", timeout, h.QueueDepth, h.Inflight)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Metrics scrapes the server's Prometheus exposition.
func (s *Server) Metrics() (measure.Series, error) {
	body, err := get(s.DebugAddr, "/metrics")
	if err != nil {
		return nil, err
	}
	return measure.ParseProm(body)
}

// PipelineStats is the part of GET /api/stats' pipeline object that has no
// /metrics family.
type PipelineStats struct {
	Pipeline struct {
		Shed         uint64 `json:"shed"`
		Throttled    uint64 `json:"throttled"`
		Retried      uint64 `json:"retried"`
		DeadLettered uint64 `json:"dead_lettered"`
	} `json:"pipeline"`
	Storage struct {
		RecoveredRecords int   `json:"recovered_records"`
		WALBytes         int64 `json:"wal_bytes"`
		WALRecords       int64 `json:"wal_records"`
	} `json:"storage"`
}

// Stats reads the pipeline counters.
func (s *Server) Stats() (PipelineStats, error) {
	var st PipelineStats
	body, err := get(s.Addr, "/api/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// Checkpoint asks a durable primary for an online checkpoint and waits for
// it; checkpoints exclude one another, so when it returns none is running.
func (s *Server) Checkpoint() error {
	c := NewConn(s.Addr)
	defer c.Close()
	status, body, err := c.Do(gen.Post("/api/checkpoint", nil))
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("POST /api/checkpoint: status %d: %s", status, body)
	}
	return nil
}

// MemStats forces a garbage collection in the server and reads its
// runtime.MemStats: HeapAlloc is then the live heap, a figure that repeats
// from run to run where resident set size does not.
func (s *Server) MemStats() (measure.MemStats, error) {
	body, err := get(s.DebugAddr, "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return measure.MemStats{}, err
	}
	return measure.ParseMemStats(body)
}

// PeakRSSMB is the process's resident-set high-water mark.
func (s *Server) PeakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(s.PID()) + "/status")
	if err != nil {
		return 0, err
	}
	kb, err := measure.ProcPeakRSSKB(b)
	return float64(kb) / 1024, err
}

// clockTicksPerSecond is USER_HZ, which Linux fixes at 100 for every
// architecture Go runs on.
const clockTicksPerSecond = 100

func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	ticks, err := measure.ProcCPUTicks(b)
	return float64(ticks) / clockTicksPerSecond, err
}
