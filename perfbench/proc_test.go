package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestParseProcStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses.
	line := []byte("4242 (clean (sel) d) S 1 4242 4242 0 -1 4194560 310 0 0 0 157 43 0 0 20 0 9 0 100 2000 300\n")
	got, err := parseProcStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 200 * clockTick; got != want {
		t.Fatalf("cpu = %v, want %v", got, want)
	}
	if _, err := parseProcStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Fatal("short line parsed")
	}
}

func TestParseCPUTimes(t *testing.T) {
	stat := []byte("cpu  100 5 50 800 10 1 2 32 7 0\ncpu0 50 2 25 400 5 0 1 16 3 0\n")
	got, err := parseCPUTimes(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got.total != 1000 || got.steal != 32 {
		t.Fatalf("got %+v, want total 1000 steal 32", got)
	}
	later := cpuTimes{total: 1200, steal: 52}
	if s := stealShare(got, later); s != 0.1 {
		t.Fatalf("steal share %v, want 0.1", s)
	}
}

// threadCPU reads one thread's CPU from /proc/self/task/<tid>/stat.
func threadCPU(t *testing.T, tid int) time.Duration {
	t.Helper()
	b, err := os.ReadFile(fmt.Sprintf("/proc/self/task/%d/stat", tid))
	if err != nil {
		t.Fatal(err)
	}
	d, err := parseProcStatCPU(b)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestProcessCPUSumsThreads burns CPU on two OS threads and checks that
// the process figure cpu_ms_per_op is built from covers both: it grows
// by at least the sum of what each thread used.
func TestProcessCPUSumsThreads(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	before, err := processCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	const burn = 150 * time.Millisecond
	var wg sync.WaitGroup
	used := make([]time.Duration, 2)
	for i := range used {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			tid := syscall.Gettid()
			start := threadCPU(t, tid)
			x := 1.0
			for threadCPU(t, tid)-start < burn {
				for k := 0; k < 1e5; k++ {
					x = x*1.0000001 + 1e-9
				}
			}
			used[i] = threadCPU(t, tid) - start
			_ = x
		}(i)
	}
	wg.Wait()
	after, err := processCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	// Per-thread and process figures are rounded to clock ticks
	// separately, so allow one tick per thread.
	if got, want := after-before, used[0]+used[1]-2*clockTick; got < want {
		t.Fatalf("process CPU grew %v, threads used %v and %v", got, used[0], used[1])
	}
}

// TestSetIdlePolicy checks that the spinner's threads can move
// themselves to SCHED_IDLE.
func TestSetIdlePolicy(t *testing.T) {
	errc := make(chan error, 1)
	go func() {
		runtime.LockOSThread() // never unlocked: the thread ends with this goroutine
		if err := setIdlePolicy(); err != nil {
			errc <- err
			return
		}
		p, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETSCHEDULER, 0, 0, 0)
		switch {
		case e != 0:
			errc <- e
		case p != schedIdle:
			errc <- fmt.Errorf("policy %d after setIdlePolicy, want SCHED_IDLE (%d)", p, schedIdle)
		default:
			errc <- nil
		}
	}()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
