package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

type hostInfo struct {
	NumCPU   int
	CPUModel string
}

func readHost() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), CPUModel: "unknown"}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return h
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var s cpuStat
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			s.total += v
		}
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// stealFrac is the share of host CPU time stolen by the hypervisor between
// two readings: noisy runs on a shared host are explained by it.
func (s cpuStat) stealFrac(later cpuStat) float64 {
	return ratio(float64(later.steal-s.steal), float64(later.total-s.total))
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// watchRSS samples this process's resident set every interval until stop
// is closed, then returns the largest sample in MiB. The process-lifetime
// peak would also count the benchmark's own input generation and output
// checks; sampling only the measured phase leaves those out.
func watchRSS(stop <-chan struct{}, interval time.Duration) float64 {
	page := float64(os.Getpagesize())
	peak := 0.0
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		if data, err := os.ReadFile("/proc/self/statm"); err == nil {
			if f := strings.Fields(string(data)); len(f) > 1 {
				if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
					peak = max(peak, pages*page/(1<<20))
				}
			}
		}
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}

// procCPU reads a live process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// space-separated, utime and stime being fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %d fields", pid, len(fields))
	}
	ut, err1 := strconv.ParseUint(fields[11], 10, 64)
	st, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat CPU times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}
