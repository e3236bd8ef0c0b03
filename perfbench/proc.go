package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// child is one program under test, started in its own process group so
// that stopping it also stops every process it spawned.
type child struct {
	cmd      *exec.Cmd
	start    time.Time
	stdout   bytes.Buffer
	stderr   bytes.Buffer
	firstOut chan time.Time // receives the arrival time of the first stdout byte
	done     chan struct{}  // closed once the process has been waited for
	end      time.Time
	err      error
}

var (
	childrenMu sync.Mutex
	children   []*child
)

// startChild runs bin/name with args, capturing its output.
func startChild(cfg *config, name string, args ...string) (*child, error) {
	c := &child{firstOut: make(chan time.Time, 1), done: make(chan struct{})}
	c.cmd = exec.Command(filepath.Join(cfg.bin, name), args...)
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	c.cmd.Stderr = &c.stderr
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.start = now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	childrenMu.Lock()
	children = append(children, c)
	childrenMu.Unlock()
	go func() {
		buf := make([]byte, 64<<10)
		first := true
		for {
			n, err := out.Read(buf)
			if n > 0 && first {
				c.firstOut <- now()
				first = false
			}
			c.stdout.Write(buf[:n])
			if err != nil {
				break
			}
		}
		if first {
			close(c.firstOut)
		}
		c.err = c.cmd.Wait()
		c.end = now()
		close(c.done)
	}()
	return c, nil
}

// wait blocks until the child exits, or kills it after timeout.
func (c *child) wait(timeout time.Duration) error {
	select {
	case <-c.done:
	case <-time.After(timeout):
		c.kill()
		return fmt.Errorf("%s still running after %v; killed", c.cmd.Path, timeout)
	}
	return c.err
}

// kill stops the child's whole process group and waits for the child. The
// group outlives its leader while any member runs, so this also stops
// orphaned grandchildren (a dist coordinator's workers).
func (c *child) kill() {
	if c.cmd.Process != nil {
		syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) //nolint:errcheck // already gone is fine
	}
	<-c.done
}

// terminate asks the child to shut down (SIGTERM) and waits for it; a
// child still running after timeout is killed.
func (c *child) terminate(timeout time.Duration) error {
	if c.cmd.Process != nil {
		c.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	}
	return c.wait(timeout)
}

// wall is the child's lifetime, start to exit.
func (c *child) wall() time.Duration { return c.end.Sub(c.start) }

// usage returns the CPU time and peak resident set of the exited child,
// its reaped descendants included.
func (c *child) usage() (cpu time.Duration, rssMiB float64) {
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	cpu = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
	return cpu, float64(ru.Maxrss) / 1024
}

// stopChildren kills every child still running; called before exit so no
// process outlives the benchmark.
func stopChildren() {
	childrenMu.Lock()
	cs := append([]*child(nil), children...)
	childrenMu.Unlock()
	for _, c := range cs {
		c.kill()
	}
}

// selfUsage returns this process's CPU time and peak resident set.
func selfUsage() (cpu time.Duration, rssMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
	return cpu, float64(ru.Maxrss) / 1024
}

// scratchDir makes a fresh directory under the run's scratch directory.
func scratchDir(cfg *config, prefix string) (string, error) {
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.tmp, prefix)
}
