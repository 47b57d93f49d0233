package measure

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Series is one Prometheus text exposition parsed into its sample lines:
// the key is the series as written, name plus label set ("x_total",
// `x_seconds_bucket{route="GET /api/assess",le="0.5"}`).
type Series map[string]float64

// ParseProm parses Prometheus text format 0.0.4. Comment lines are skipped;
// a sample line that does not end in a number is an error, because a
// silently dropped series would read as "no work done".
func ParseProm(text []byte) (Series, error) {
	out := Series{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces; label
		// values here (route patterns) contain spaces.
		cut := strings.LastIndexByte(line, ' ')
		if brace := strings.LastIndexByte(line, '}'); brace > cut || cut < 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// splitSeries separates a series key into its family name and label text
// (without the braces).
func splitSeries(key string) (name, labels string) {
	open := strings.IndexByte(key, '{')
	if open < 0 {
		return key, ""
	}
	return key[:open], strings.TrimSuffix(key[open+1:], "}")
}

// Sum adds every series of the family name whose label text contains all of
// the given fragments (`route="GET /api/assess"`); with no fragments it sums
// the whole family, which folds per-shard and per-route series into one.
func (s Series) Sum(name string, labelFragments ...string) float64 {
	var total float64
	for key, v := range s {
		if n, labels := splitSeries(key); n == name && containsAll(labels, labelFragments) {
			total += v
		}
	}
	return total
}

func containsAll(labels string, fragments []string) bool {
	for _, f := range fragments {
		if !strings.Contains(labels, f) {
			return false
		}
	}
	return true
}

// Delta is after minus before, series by series; a series absent before
// counts from zero (label sets appear on first use).
func Delta(before, after Series) Series {
	out := make(Series, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// HistMean is a histogram family's sum over count — seconds per
// observation for a _seconds family — folded over every label set that
// matches; 0 when nothing was observed.
func (s Series) HistMean(name string, labelFragments ...string) float64 {
	n := s.Sum(name+"_count", labelFragments...)
	if n == 0 {
		return 0
	}
	return s.Sum(name+"_sum", labelFragments...) / n
}

// HistQuantile estimates the q-quantile of a histogram family from its
// cumulative buckets (summed over matching label sets), interpolating
// inside the bucket as Prometheus' histogram_quantile does. ok is false
// when the histogram is empty.
func (s Series) HistQuantile(q float64, name string, labelFragments ...string) (float64, bool) {
	type bucket struct{ le, n float64 }
	byLE := map[float64]float64{}
	for key, v := range s {
		n, labels := splitSeries(key)
		if n != name+"_bucket" || !containsAll(labels, labelFragments) {
			continue
		}
		i := strings.Index(labels, `le="`)
		if i < 0 {
			continue
		}
		raw := labels[i+4:]
		raw = raw[:strings.IndexByte(raw, '"')]
		le := math.Inf(1)
		if raw != "+Inf" {
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				continue
			}
			le = f
		}
		byLE[le] += v
	}
	bs := make([]bucket, 0, len(byLE))
	for le, n := range byLE {
		bs = append(bs, bucket{le, n})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0, false
	}
	rank := q * bs[len(bs)-1].n
	for i, b := range bs {
		if b.n < rank {
			continue
		}
		if math.IsInf(b.le, 1) {
			return bs[i-1].le, true
		}
		lo, below := 0.0, 0.0
		if i > 0 {
			lo, below = bs[i-1].le, bs[i-1].n
		}
		if b.n == below {
			return b.le, true
		}
		return lo + (b.le-lo)*(rank-below)/(b.n-below), true
	}
	return bs[len(bs)-1].le, true
}

// ProcCPUTicks reads utime+stime, in clock ticks, out of the text of
// /proc/<pid>/stat. The command name (field 2) may itself contain spaces
// and parentheses, so fields are counted from the last ')'.
func ProcCPUTicks(stat []byte) (int64, error) {
	paren := bytes.LastIndexByte(stat, ')')
	if paren < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(string(stat[paren+1:]))
	// After the command come state (field 3) ... utime (14), stime (15).
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// ProcPeakRSSKB reads VmHWM (peak resident set, kB) out of the text of
// /proc/<pid>/status.
func ProcPeakRSSKB(status []byte) (int64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// MemStats is the part of runtime.MemStats the benchmark reads from the
// text form of /debug/pprof/heap?debug=1.
type MemStats struct {
	HeapAlloc, TotalAlloc, Mallocs uint64
}

// ParseMemStats reads the "# Name = value" trailer of a pprof heap text
// profile. All three fields must be present.
func ParseMemStats(profile []byte) (MemStats, error) {
	var m MemStats
	want := map[string]*uint64{
		"HeapAlloc": &m.HeapAlloc, "TotalAlloc": &m.TotalAlloc,
		"Mallocs": &m.Mallocs,
	}
	// The trailer is the last few KB of a profile that can be hundreds.
	if i := bytes.LastIndex(profile, []byte("# runtime.MemStats")); i >= 0 {
		profile = profile[i:]
	}
	found := 0
	for _, line := range strings.Split(string(profile), "\n") {
		rest, ok := strings.CutPrefix(line, "# ")
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(rest, " = ")
		if !ok {
			continue
		}
		if dst := want[name]; dst != nil {
			n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
			if err != nil {
				return m, fmt.Errorf("memstats %s: %w", name, err)
			}
			*dst = n
			found++
		}
	}
	if found != len(want) {
		return m, fmt.Errorf("memstats: found %d of %d fields", found, len(want))
	}
	return m, nil
}
