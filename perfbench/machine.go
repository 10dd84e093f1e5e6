package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// machine is the run's hardware and toolchain record.
type machine struct {
	CPU        string   `json:"cpu"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Caches     []string `json:"caches"`
	LLCBytes   int64    `json:"llc_bytes"`
	// CopyGBps is a copy loop's bandwidth (bytes read plus written per
	// second) measured in this run over CopyBytes-long arrays.
	CopyGBps  float64 `json:"copy_gbps"`
	CopyBytes int64   `json:"copy_bytes"`
	// CopyNote says what the copy arrays were sized against.
	CopyNote string `json:"copy_note"`
}

// copyCapBytes caps each copy array: arrays of 4x the last-level cache
// would measure memory rather than cache bandwidth, but on machines
// with a large LLC that needs more memory than a benchmark run should
// hold, and the measurement then stays within the LLC.
const copyCapBytes = 64 << 20

func measureMachine() machine {
	m := machine{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	m.Caches, m.LLCBytes = caches()
	n := 4 * m.LLCBytes
	m.CopyNote = "arrays are 4x the last-level cache"
	if n <= 0 || n > copyCapBytes {
		n = copyCapBytes
		m.CopyNote = "arrays capped below 4x the last-level cache; kernels.bw_frac is not reported"
	}
	m.CopyBytes = n
	m.CopyGBps = copyBandwidth(int(n))
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// caches lists cpu0's caches as lscpu derives them from sysfs, and
// returns the largest (last-level) size in bytes.
func caches() ([]string, int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var out []string
	var llc int64
	read := func(d, f string) string {
		b, _ := os.ReadFile(filepath.Join(d, f))
		return strings.TrimSpace(string(b))
	}
	for _, d := range dirs {
		size := read(d, "size")
		out = append(out, "L"+read(d, "level")+" "+read(d, "type")+" "+size+
			" shared by cpus "+read(d, "shared_cpu_list"))
		if n, err := strconv.ParseInt(strings.TrimSuffix(size, "K"), 10, 64); err == nil && n*1024 > llc {
			llc = n * 1024
		}
	}
	return out, llc
}

// copyBandwidth times copy() between two n-byte arrays and returns the
// median of several passes in GB/s, counting bytes read plus written.
func copyBandwidth(n int) float64 {
	src := make([]byte, n)
	dst := make([]byte, n)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault the pages in before timing
	var rates []float64
	for i := 0; i < 7; i++ {
		t := time.Now()
		copy(dst, src)
		rates = append(rates, 2*float64(n)/time.Since(t).Seconds()/1e9)
	}
	return median(rates)
}
