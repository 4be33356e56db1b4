package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// stamp is printed on the line before the result: results are comparable
// only between runs whose host.cores match (benchmarks/results/README.md).
type stamp struct {
	Host struct {
		Cores      int    `json:"cores"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		CPU        string `json:"cpu"`
		Go         string `json:"go"`
		OSArch     string `json:"os_arch"`
	} `json:"host"`
	Run struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Seconds  float64 `json:"seconds"`
		Trace    bool    `json:"trace"`
		Commit   string  `json:"commit"`
		WallS    float64 `json:"wall_s"`
		// StealShare is the share of the host's CPU time the hypervisor
		// gave to other guests during the run (/proc/stat): on a shared
		// host it explains runs that read slow.
		StealShare float64 `json:"steal_share"`
	} `json:"run"`
	// Samples is each measured series' sample count.
	Samples map[string]int `json:"samples"`
	// Tail states the rule behind every .tail metric.
	Tail string `json:"tail"`
}

func newStamp(cfg runConfig, out *outcome, wall time.Duration, cpu0 cpuTicks) stamp {
	var s stamp
	s.Host.Cores = runtime.NumCPU()
	s.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	s.Host.CPU = cpuModel()
	s.Host.Go = runtime.Version()
	s.Host.OSArch = runtime.GOOS + "/" + runtime.GOARCH
	s.Run.Workload = cfg.Workload
	s.Run.Seed = cfg.Seed
	s.Run.Seconds = cfg.Budget.Seconds()
	s.Run.Trace = cfg.Traced
	s.Run.Commit = commit()
	s.Run.WallS = wall.Seconds()
	if cpu1 := readCPUTicks(); cpu1.total > cpu0.total {
		s.Run.StealShare = float64(cpu1.steal-cpu0.steal) / float64(cpu1.total-cpu0.total)
	}
	s.Samples = out.Samples
	s.Tail = fmt.Sprintf("the median over %d consecutive stretches of the series, in the order measured, of each stretch's p%d (nearest rank); one stretch when n < %d; 0 when n < %d",
		tailSegments, tailPct, tailSegments*minTailSamples, minTailSamples)
	return s
}

// cpuTicks is the host-wide CPU time from /proc/stat, in clock ticks.
type cpuTicks struct{ total, steal uint64 }

// readCPUTicks reads the aggregate cpu line; zero when it cannot.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		if i < 8 { // user … steal; guest time is already inside user
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one (a plain source checkout has none).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			if kv.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}
