package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the machine and runtime a result was measured on. Timings
// from different hosts are not comparable; this record says which host
// produced which numbers.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	GOMEMLIMIT string `json:"gomemlimit"`
	// MemLimitBytes is the effective soft memory limit the runtime applies
	// (math.MaxInt64 when unset).
	MemLimitBytes int64 `json:"mem_limit_bytes"`
}

func readHost() hostInfo {
	return hostInfo{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUModel:      cpuModel(),
		GoVersion:     runtime.Version(),
		GOGC:          envOr("GOGC", "default(100)"),
		GOMEMLIMIT:    envOr("GOMEMLIMIT", "default(off)"),
		MemLimitBytes: debug.SetMemoryLimit(-1),
	}
}

func envOr(key, def string) string {
	if v, ok := os.LookupEnv(key); ok {
		return v
	}
	return def
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown"
// where the file does not exist (non-Linux hosts).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest whole percentile that still has at
// least ten samples beyond it, with its nearest-rank value. ok is false
// below 20 samples, where no percentile above the median has ten beyond it.
func tailPercentile(xs []float64) (pct int, v float64, ok bool) {
	n := len(xs)
	if n < 20 {
		return 0, 0, false
	}
	pct = int(math.Floor(100 * (1 - 10/float64(n))))
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(pct) / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return pct, s[rank-1], true
}

// cpuClock is the process's CPU time and the host's stolen time (time the
// hypervisor ran something else on this machine's CPUs) at one instant.
// An op's steal shows how much of its wall time the host took away.
type cpuClock struct{ cpu, steal time.Duration }

func readCPUClock() cpuClock {
	var c cpuClock
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	f, err := os.Open("/proc/stat")
	if err != nil {
		return c
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if sc.Scan() {
		// cpu user nice system idle iowait irq softirq steal …, in USER_HZ (100/s).
		if fs := strings.Fields(sc.Text()); len(fs) > 8 && fs[0] == "cpu" {
			if v, err := strconv.ParseInt(fs[8], 10, 64); err == nil {
				c.steal = time.Duration(v) * 10 * time.Millisecond
			}
		}
	}
	return c
}

func (c cpuClock) since(start cpuClock) cpuClock {
	return cpuClock{c.cpu - start.cpu, c.steal - start.steal}
}
