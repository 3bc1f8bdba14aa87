package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the unit of the utime/stime fields in /proc/<pid>/stat
// (USER_HZ, 100 on every Linux platform Go supports).
const clockTick = 10 * time.Millisecond

// parseProcStatCPU returns utime+stime from the contents of a
// /proc/<pid>/stat file. For a process (not a single task) the kernel
// sums these over every thread of the thread group, exited threads
// included, so the figure is the whole daemon's CPU. The command name
// (field 2) may contain spaces and parentheses, so fields are counted
// from the last ')'.
func parseProcStatCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line %q", stat)
	}
	// After ") " come field 3 (state) onwards; utime and stime are
	// fields 14 and 15, i.e. indexes 11 and 12 here.
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line %q", stat)
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stime: %w", err)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// processCPU reads the user+system CPU a process has used, summed over
// all of its threads.
func processCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(b)
}

// peakRSS reads a process's peak resident set (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 || f[2] != "kB" {
			return 0, fmt.Errorf("malformed %q", line)
		}
		kb, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
}

// parseCPUTimes reads the aggregate cpu line of /proc/stat contents:
// user nice system idle iowait irq softirq steal [guest guest_nice].
// Guest time is already counted in user, so the total sums the first
// eight fields.
func parseCPUTimes(stat []byte) (cpuTimes, error) {
	sc := bufio.NewScanner(bytes.NewReader(stat))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTimes{}, fmt.Errorf("short cpu line %q", sc.Text())
		}
		var t cpuTimes
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("cpu field %d: %w", i, err)
			}
			t.total += v
			if i == 8 {
				t.steal = v
			}
		}
		return t, nil
	}
	return cpuTimes{}, fmt.Errorf("no cpu line in /proc/stat")
}

// readCPUTimes samples the machine-wide CPU counters.
func readCPUTimes() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	return parseCPUTimes(b)
}

// stealShare is the share of machine CPU time stolen by the hypervisor
// between two samples.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
