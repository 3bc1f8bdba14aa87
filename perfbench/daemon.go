package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// daemon is one cleanseld child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	exited  chan struct{} // closed once the process has been reaped
	logDone chan struct{} // closed once its log is fully written
	waitErr error
}

// startDaemon launches bin on a free loopback port and returns once
// /healthz answers. The daemon's JSON log is copied to logPath; the
// harness learns the bound address from the log's "listening" line, so
// readiness is seen as it happens rather than at a polling interval.
func startDaemon(bin, logPath string, client *http.Client, deadline time.Duration) (*daemon, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-log-json")
	cmd.Stdout = pw
	cmd.Stderr = pw
	// The daemon must not outlive the harness, even if the harness is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	pw.Close() // the child holds its own copy
	if err != nil {
		pr.Close()
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), logDone: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	addr := make(chan string, 1) // written at most once
	go func() {
		defer close(d.logDone)
		defer logFile.Close()
		defer pr.Close()
		copyLog(pr, logFile, addr)
	}()
	timeout := time.After(deadline)
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		<-d.logDone
		return nil, fmt.Errorf("cleanseld exited during start-up: %v (log %s)", d.waitErr, logPath)
	case <-timeout:
		d.stop()
		return nil, fmt.Errorf("cleanseld did not listen within %s (log %s)", deadline, logPath)
	}
	// The listener is bound before the line is logged, so the first
	// health check normally succeeds; retry briefly in case it races.
	for !d.healthy(client) {
		select {
		case <-d.exited:
			<-d.logDone
			return nil, fmt.Errorf("cleanseld exited during start-up: %v (log %s)", d.waitErr, logPath)
		case <-timeout:
			d.stop()
			return nil, fmt.Errorf("cleanseld not healthy within %s", deadline)
		case <-time.After(100 * time.Microsecond):
		}
	}
	return d, nil
}

// copyLog copies the daemon's log lines to w, sending the address of
// the first "listening" line on addr, until the daemon closes its end.
func copyLog(r io.Reader, w io.Writer, addr chan<- string) {
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			_, _ = w.Write(line) // a short log is only a diagnostic loss
			var l struct{ Msg, Addr string }
			if json.Unmarshal(line, &l) == nil && l.Msg == "listening" && l.Addr != "" {
				addr <- l.Addr
				_, _ = io.Copy(w, br)
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// healthy reports whether GET /healthz answers 200.
func (d *daemon) healthy(client *http.Client) bool {
	resp, err := client.Get(d.base + "/healthz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// pid returns the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM, waits for a graceful exit, and kills the process
// if it has not exited after ten seconds. It returns once the process
// has ended and its log is closed.
func (d *daemon) stop() {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
	<-d.logDone
}

// upload posts one set-up request (a dataset) and returns its body.
func upload(client *http.Client, base string, u uploadReq) ([]byte, error) {
	resp, err := client.Post(base+u.path, "application/json", bytes.NewReader(u.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", u.path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}
