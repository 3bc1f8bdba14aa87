package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The spinner keeps every CPU of the machine busy while a run lasts,
// with threads at SCHED_IDLE priority: the kernel runs them only when
// nothing else wants the CPU and preempts them as soon as anything
// does. On a shared VM a vCPU that goes idle hands its host CPU back,
// and when the guest wakes it again it waits for the host's scheduler.
// Under host load that wait, counted as steal, is paid on every wake-up
// of the daemon's and the client's threads: in alternating runs of
// select_maxpr it slowed the p50 by up to 40% and the p90 by up to 90%,
// and the spinner took it back to within a few percent of a quiet
// host's figures. A vCPU kept busy keeps its host CPU. The spinner is
// the userspace counterpart of booting the guest with idle=poll.

// spinFlag, followed by a thread count, runs the harness binary as the
// spinner instead of a benchmark.
const spinFlag = "-spin"

// schedIdle is Linux's SCHED_IDLE scheduling policy.
const schedIdle = 5

// setIdlePolicy moves the calling OS thread to SCHED_IDLE. The caller
// must hold the thread with runtime.LockOSThread.
func setIdlePolicy() error {
	var param int32 // struct sched_param{.sched_priority = 0}
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
	if e != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", e)
	}
	return nil
}

// spinMain is the spinner process: n threads at SCHED_IDLE priority,
// each spinning on a CPU. It writes "ready" to stdout once every thread
// has its policy and then spins until it is killed.
func spinMain(n int, stdout, stderr io.Writer) int {
	// One P per spinning thread, and one for this goroutine.
	runtime.GOMAXPROCS(n + 1)
	errs := make(chan error, n) // one send per thread
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread() // never unlocked: the thread lives as long as the process
			err := setIdlePolicy()
			errs <- err
			for err == nil {
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			fmt.Fprintln(stderr, "perfbench spinner:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, "ready")
	select {}
}

// spinner is a running spinner process.
type spinner struct {
	cmd *exec.Cmd
}

// startSpinner launches the harness binary as a spinner with one thread
// per CPU and returns once every thread spins.
func startSpinner(stderr io.Writer) (*spinner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the harness binary: %w", err)
	}
	cmd := exec.Command(self, spinFlag, strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = stderr
	// The spinner must not outlive the harness, even if the harness is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the spinner: %w", err)
	}
	s := &spinner{cmd: cmd}
	line, err := bufio.NewReader(out).ReadString('\n')
	if line != "ready\n" {
		s.stop()
		return nil, fmt.Errorf("the spinner did not start (read %q: %v)", line, err)
	}
	return s, nil
}

// stop kills the spinner and returns once it has exited.
func (s *spinner) stop() {
	_ = s.cmd.Process.Kill() // fails only if it has already exited
	_ = s.cmd.Wait()         // reports the kill, or the exit the start-up error already gave
}
