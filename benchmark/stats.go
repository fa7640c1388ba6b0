package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile is the nearest-rank q-quantile (0 < q ≤ 1) of samples; zero for
// an empty slice. samples need not be sorted.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// p90MinSamples is the fewest samples for which a p90 has ten samples beyond
// it — the rule for the highest percentile worth reporting.
const p90MinSamples = 100

// p90 is the p90 of samples, or NaN — null in a result — when the pass is too
// short for one (fewer than ten samples beyond it).
func p90(samples []float64) float64 {
	if len(samples) < p90MinSamples {
		return math.NaN()
	}
	return percentile(samples, 0.9)
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method): the
// acceptance rule for a benchmark's steadiness is stated in those terms.
// It needs at least two values.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		// position i·(n+1)/4 on the 1-based sorted sample, interpolated
		// (extrapolated past the ends, as Python does for tiny samples)
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// summarize returns the quartiles of values and their spread: the
// interquartile range as a share of the median, the harness's measure of
// steadiness over ten runs. Two values have no quartiles between them (the
// formula would extrapolate past both), so they are summarized as minimum,
// mean and maximum, and their spread is their difference.
func summarize(values []float64) (q1, med, q3, spread float64) {
	q1, med, q3 = quartiles(values)
	if len(values) == 2 {
		q1, q3 = min(values[0], values[1]), max(values[0], values[1])
	}
	if med != 0 {
		spread = (q3 - q1) / math.Abs(med)
	}
	return q1, med, q3, spread
}

func spread(values []float64) float64 {
	_, _, _, sp := summarize(values)
	return sp
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	return out
}

// hostInfo is the host shape recorded with every result: numbers from two
// differently shaped hosts must never be compared as like for like.
type hostInfo struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	ScratchFS  string  `json:"scratch_fs"`
	LoadAvg1   float64 `json:"loadavg_1m"`
	// StealPct is the share of CPU time the hypervisor gave to other guests
	// while this result was measured (/proc/stat).
	StealPct float64 `json:"steal_pct"`
	// Noisy marks a result measured with more than noisyStealPct steal.
	Noisy bool `json:"noisy"`
}

// noisyStealPct is the steal share above which a set is labelled noisy
// instead of being silently compared.
const noisyStealPct = 5

// cpuTimes is one reading of the aggregate cpu line of /proc/stat, in ticks.
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPctSince is the steal share of all CPU time since the reading from.
func stealPctSince(from cpuTimes) float64 {
	now := readCPUTimes()
	if now.total <= from.total {
		return 0
	}
	return 100 * (now.steal - from.steal) / (now.total - from.total)
}

func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	first, _, _ := strings.Cut(string(data), " ")
	v, _ := strconv.ParseFloat(first, 64)
	return v
}

// fsMagic names the filesystems a scratch directory plausibly lives on.
var fsMagic = map[int64]string{
	0xef53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// newHostInfo describes the host for a result measured since from.
func newHostInfo(scratch string, from cpuTimes) hostInfo {
	steal := stealPctSince(from)
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		ScratchFS:  fsType(scratch),
		LoadAvg1:   loadAvg1(),
		StealPct:   steal,
		Noisy:      steal > noisyStealPct,
	}
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the process's user and system CPU time so far.
func cpuSeconds() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}
