package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestMain removes the binary the hygiene test built.
func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

var binDir string

// builtBinary builds the benchmark once per test binary.
var builtBinary = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "sibm-hygiene")
	if err != nil {
		return "", err
	}
	binDir = dir
	bin := filepath.Join(dir, "sibm")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build: %w: %s", err, out)
	}
	return bin, nil
})

// started is a run of the built binary in a process group of its own, so
// that anything it started, and anything that started in turn, can be found
// in /proc by group whatever it was reparented to.
type started struct {
	cmd    *exec.Cmd
	stdout *bytes.Buffer
	addrs  chan string // one per "listening <addr>" line
	done   chan error
}

func start(t *testing.T, args ...string) *started {
	t.Helper()
	bin, err := builtBinary()
	if err != nil {
		t.Fatal(err)
	}
	s := &started{cmd: exec.Command(bin, args...), stdout: &bytes.Buffer{}, addrs: make(chan string, 64), done: make(chan error, 1)}
	s.cmd.Dir = t.TempDir()
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	pipe, err := s.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	s.cmd.Stderr = os.Stderr
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			s.stdout.WriteString(line + "\n")
			if addr, ok := strings.CutPrefix(line, "listening "); ok {
				s.addrs <- addr
			}
		}
		s.done <- s.cmd.Wait() // after the pipe is drained, as Wait requires
	}()
	return s
}

// wait returns the exit error, failing the test if the process is still
// there after d.
func (s *started) wait(t *testing.T, d time.Duration) error {
	t.Helper()
	select {
	case err := <-s.done:
		return err
	case <-time.After(d):
		syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL)
		t.Fatalf("still running after %v", d)
		return nil
	}
}

// groupMembers lists the live processes of a process group, from /proc.
func groupMembers(t *testing.T, pgid int) (pids []int) {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue // gone in the meantime
		}
		// pid (comm) state ppid pgrp ...; comm may hold spaces and parentheses.
		fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
		if len(fields) > 2 && fields[2] == strconv.Itoa(pgid) && fields[0] != "Z" {
			pids = append(pids, pid)
		}
	}
	return pids
}

func assertGone(t *testing.T, s *started, addrs []string) {
	t.Helper()
	if left := groupMembers(t, s.cmd.Process.Pid); len(left) > 0 {
		t.Errorf("processes %v of the benchmark's group are still alive", left)
	}
	for _, addr := range addrs {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections", addr)
		}
	}
}

// TestNothingLeftRunning runs the built binary at smoke size, once to
// completion and once stopped by SIGTERM in the middle of the wire
// workload, and asserts both times that no process of its group survives
// and that the ports it listened on refuse connections.
func TestNothingLeftRunning(t *testing.T) {
	t.Run("completion", func(t *testing.T) {
		s := start(t, "--workload", "all", "--smoke")
		if err := s.wait(t, 2*time.Minute); err != nil {
			t.Fatalf("smoke run failed: %v\n%s", err, s.stdout)
		}
		close(s.addrs)
		var addrs []string
		for a := range s.addrs {
			addrs = append(addrs, a)
		}
		if len(addrs) == 0 {
			t.Error("the wire workload announced no listener")
		}
		last := strings.TrimSpace(s.stdout.String())
		last = last[strings.LastIndexByte(last, '\n')+1:]
		if !strings.HasPrefix(last, `{"correct":true,`) {
			t.Errorf("last line of output is not a passing result: %s", last)
		}
		assertGone(t, s, addrs)
	})
	t.Run("sigterm", func(t *testing.T) {
		// Full-size data and a long budget: the signal is sure to land
		// while clients and server are busy.
		s := start(t, "--workload", "read_wire", "--seconds", "30")
		var addr string
		select {
		case addr = <-s.addrs:
		case <-time.After(time.Minute):
			syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL)
			t.Fatal("no listener within a minute")
		}
		time.Sleep(300 * time.Millisecond)
		if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		err := s.wait(t, 30*time.Second)
		if err == nil {
			t.Error("a run stopped by SIGTERM exited 0")
		}
		if strings.Contains(s.stdout.String(), `{"correct"`) {
			t.Errorf("a run stopped by SIGTERM printed a result:\n%s", s.stdout)
		}
		assertGone(t, s, []string{addr})
	})
}
