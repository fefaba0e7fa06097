package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one running llmms process.
type proc struct {
	cmd  *exec.Cmd
	base string // http://host:port
	log  *os.File
	done chan struct{} // closed once the process has been waited for
}

// boot spawns llmms on a free loopback port and returns once GET /readyz
// answers 200, with the time from spawn to that answer. The flags are
// the deployment under test; every workload boots it, and only -latency
// varies. -max-inflight 4 is below two full fan-outs (2 × 3), so the
// gate queues a second concurrent query unless routing narrowed it.
func boot(bin string, w Workload, dataDir, dataset, logPath string) (*proc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{
		"-addr", addr,
		"-fleet", "2", "-router-topk", "1", "-max-inflight", "4",
		"-data-dir", dataDir, "-dataset", dataset, "-latency", w.Latency,
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the server if the benchmark itself is killed
	// before its deferred kill runs.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start llmms: %w", err)
	}
	p := &proc{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries no information
		close(p.done)
	}()
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for time.Since(start) < 60*time.Second {
		select {
		case <-p.done:
			p.kill()
			return nil, 0, fmt.Errorf("llmms exited during boot; log %s:\n%s", logPath, tail(logPath))
		default:
		}
		resp, err := probe.Get(p.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	p.kill()
	return nil, 0, errors.New("llmms not ready within 60s")
}

// kill ends the process with SIGKILL and waits until it has exited.
func (p *proc) kill() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-p.done
	p.log.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// copyDir copies a data directory tree so each boot recovers the same
// seeded state.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, raw, 0o644)
	})
}

// tail returns the end of a log file for error messages.
func tail(path string) string {
	raw, _ := os.ReadFile(path) // diagnostics only
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return string(raw)
}
