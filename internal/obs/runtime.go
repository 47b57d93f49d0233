package obs

import (
	"runtime"
	"sync"
	"time"
)

// Runtime gauges: sampled at scrape time. runtime.ReadMemStats is a
// stop-the-world read, so one snapshot is shared by every heap gauge and
// cached briefly in case a scraper reads the families back to back.
var (
	memMu   sync.Mutex
	memAt   time.Time
	memStat runtime.MemStats
)

func memstats() *runtime.MemStats {
	memMu.Lock()
	defer memMu.Unlock()
	if time.Since(memAt) > time.Second {
		runtime.ReadMemStats(&memStat)
		memAt = time.Now()
	}
	return &memStat
}

// ProcessStart is the process start time (package init), served by
// GET /api/version and the go_process_uptime_seconds gauge.
var ProcessStart = time.Now()

// registerRuntime adds the go_* process gauges to r.
func registerRuntime(r *Registry) {
	r.NewGaugeFunc("go_goroutines", "Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.NewGaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 { return float64(memstats().HeapAlloc) })
	r.NewGaugeFunc("go_heap_sys_bytes", "Bytes of heap obtained from the OS.",
		func() float64 { return float64(memstats().HeapSys) })
	r.NewGaugeFunc("go_gc_cycles_total", "Completed GC cycles since process start.",
		func() float64 { return float64(memstats().NumGC) })
	r.NewGaugeFunc("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.",
		func() float64 { return float64(memstats().PauseTotalNs) / 1e9 })
	r.NewGaugeFunc("go_process_uptime_seconds", "Seconds since process start.",
		func() float64 { return time.Since(ProcessStart).Seconds() })
}
