package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envRecord describes where a result was measured.
type envRecord struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GitSHA     string `json:"git_sha"`
	SourceHash string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Network    string `json:"network"`
	WALCache   string `json:"wal_recovery"`
}

func newEnvRecord(root, sha string) envRecord {
	return envRecord{
		GitSHA:     sha,
		SourceHash: sourceHash(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		Network:    "loopback TCP on 127.0.0.1 in one process; no physical link",
		WALCache:   "store recovery reads a WAL just written, from a warm page cache",
	}
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(b)
}

func cpuModel() string {
	for _, line := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests the Go sources and module files under root, so a
// result names the code it measured even in a checkout without git.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// procSnap is a process-wide reading taken at a phase boundary.
type procSnap struct {
	at          time.Time
	cpu         time.Duration // user + system
	ctxSwitches int64
	diskWrite   int64 // /proc/self/io write_bytes
	allocs      uint64
	allocBytes  uint64
	gcCPU       float64
	totalCPU    float64
	sched       *metrics.Float64Histogram
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/sched/latencies:seconds"},
}

func takeProcSnap() procSnap {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := procSnap{
		at:          time.Now(),
		cpu:         time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		ctxSwitches: ru.Nvcsw + ru.Nivcsw,
		diskWrite:   procIOWriteBytes(),
	}
	samples := make([]metrics.Sample, len(procSamples))
	copy(samples, procSamples)
	metrics.Read(samples)
	s.allocs = samples[0].Value.Uint64()
	s.allocBytes = samples[1].Value.Uint64()
	s.gcCPU = samples[2].Value.Float64()
	s.totalCPU = samples[3].Value.Float64()
	s.sched = samples[4].Value.Float64Histogram()
	return s
}

func procIOWriteBytes() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "write_bytes:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// schedP99 returns the 99th percentile of goroutine scheduling latency
// between two snapshots, in microseconds.
func schedP99(a, b procSnap) float64 {
	if a.sched == nil || b.sched == nil || len(a.sched.Counts) != len(b.sched.Counts) {
		return 0
	}
	var total uint64
	d := make([]uint64, len(b.sched.Counts))
	for i := range d {
		d[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total) * 0.99)
	var seen uint64
	for i, c := range d {
		seen += c
		if seen > want {
			// Upper edge of the bucket, bounded when it is +Inf.
			hi := b.sched.Buckets[i+1]
			if hi > 1e9 {
				hi = b.sched.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// liveHeapMB forces two collections — the second empties what the
// first moved to sync.Pool victim caches — and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
