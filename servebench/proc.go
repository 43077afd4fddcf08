package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one certsqld process.
type serverProc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited and been reaped
	url  string
	// Startup is process start to the first 200 from /healthz.
	Startup time.Duration
}

// startServer runs certsqld with args plus a kernel-assigned loopback
// port, and returns once /healthz answers 200. The server's log goes
// to logPath.
func startServer(ctx context.Context, bin, logPath string, args ...string) (*serverProc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server log: %w", err)
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logf
	// The server dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start certsqld: %w", err)
	}
	p := &serverProc{cmd: cmd, done: make(chan struct{})}
	lines := make(chan string, 1) // the one listening line; the reader never blocks on it twice
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if u, ok := strings.CutPrefix(sc.Text(), "certsqld listening on "); ok {
				select {
				case lines <- u:
				default:
				}
			}
		}
		_ = cmd.Wait() // after stdout is drained, as exec requires
		close(p.done)
	}()
	select {
	case p.url = <-lines:
	case <-p.done:
		return nil, fmt.Errorf("certsqld exited before listening (see %s)", logPath)
	case <-time.After(2 * time.Minute):
		p.kill()
		return nil, fmt.Errorf("certsqld did not listen within 2m")
	}
	if err := p.waitHealthy(ctx); err != nil {
		p.kill()
		return nil, err
	}
	p.Startup = time.Since(start)
	return p, nil
}

// healthPoll is the /healthz polling interval. A durable certsqld
// listens before it recovers and answers each poll while it does, so
// the interval is long enough that polls cost it little CPU time.
const healthPoll = 2 * time.Millisecond

// waitHealthy polls /healthz until it answers 200.
func (p *serverProc) waitHealthy(ctx context.Context) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := hc.Get(p.url + "/healthz")
		if err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("certsqld exited while starting")
		case <-time.After(healthPoll):
		}
	}
	return fmt.Errorf("certsqld not healthy within 2m")
}

// PeakRSSMiB reads the process's peak resident set (VmHWM).
func (p *serverProc) PeakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read VmHWM: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// CPU times; it is 100 on every Linux platform Go supports.
const clockTicks = 100

// CPUSeconds reads the process's user plus system CPU time, in clock
// ticks. A kernel with paravirtual steal accounting
// (CONFIG_PARAVIRT_TIME_ACCOUNTING) leaves out time the hypervisor
// stole, so this is the work the server did whatever else ran on the
// machine.
func (p *serverProc) CPUSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read CPU time: %w", err)
	}
	// Fields after the parenthesised command name, which may hold
	// spaces: state is the first, utime the 12th and stime the 13th.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", p.cmd.Process.Pid)
	}
	var ticks float64
	for _, s := range f[11:13] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("parse CPU time %q: %w", s, err)
		}
		ticks += v
	}
	return ticks / clockTicks, nil
}

// exitedCPU is the whole CPU time, user plus system over all threads,
// of a process that has been reaped, from its resource usage
// (microsecond resolution). It leaves out stolen time as CPUSeconds
// does.
func (p *serverProc) exitedCPU() time.Duration {
	return p.cmd.ProcessState.UserTime() + p.cmd.ProcessState.SystemTime()
}

// kill sends SIGKILL and waits for the process to be reaped.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // fails only if it already exited; done still closes
	<-p.done
}
