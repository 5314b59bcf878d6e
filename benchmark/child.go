package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/cmd/ereeserve/config"
	"repro/cmd/ereeserve/server"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/lodes"
)

// childArg as the first argument makes the binary a server child.
const childArg = "serve-child"

// Demo-configuration credentials (config.Demo) the load authenticates with.
const (
	tenantKey = "tenant-alpha-key"
	adminKey  = "admin-demo-key"
)

// childMain is the server child. Its boot is cmd/ereeserve's run —
// configuration, dataset generation, tenant registry, server.Open, Start —
// with one difference: quarterly deltas follow lodes.CalibratedDeltaConfig
// instead of the full-churn default. It prints "listening on ADDR" when
// ready, answers SIGUSR1 with a "heap_inuse_bytes N" line, and drains on
// SIGTERM.
func childMain(args []string) int {
	fs := flag.NewFlagSet(childArg, flag.ContinueOnError)
	scale := fs.String("scale", "test", `dataset scale: "test" or "default"`)
	stateDir := fs.String("state-dir", "", "durable accounting directory")
	deltaSeed := fs.Int64("delta-seed", 100, "root seed of admin-advance deltas")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config.Demo()
	cfg.Addr = "127.0.0.1:0"
	cfg.DataScale = *scale
	cfg.StateDir = *stateDir
	cfg.DeltaSeed = *deltaSeed
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	data, err := generate(cfg.DataScale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	srv, err := openInProcess(data, cfg.StateDir, cfg.DeltaSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	svc, err := srv.Start(cfg.Addr, server.RunOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt, syscall.SIGUSR1)
	fmt.Printf("listening on %s\n", svc.Addr())
	for {
		select {
		case err := <-svc.Done():
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			return 0
		case s := <-sig:
			if s == syscall.SIGUSR1 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				fmt.Printf("heap_inuse_bytes %d\n", ms.HeapInuse)
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := svc.Shutdown(ctx)
			cancel()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			return 0
		}
	}
}

// dataConfig is cmd/ereeserve's generator choice for a data scale.
func dataConfig(scale string) lodes.Config {
	if scale == "default" {
		return lodes.DefaultConfig()
	}
	return lodes.TestConfig()
}

// generate is cmd/ereeserve's dataset: the scale's generator at the demo
// configuration's data seed.
func generate(scale string) (*lodes.Dataset, error) {
	return lodes.Generate(dataConfig(scale), dist.NewStreamFromSeed(config.Demo().DataSeed))
}

// openInProcess is the rest of cmd/ereeserve's boot up to Start: the demo
// tenant registry and server.Open over stateDir, with quarterly deltas
// from lodes.CalibratedDeltaConfig rooted at deltaSeed.
func openInProcess(data *lodes.Dataset, stateDir string, deltaSeed int64) (*server.Server, error) {
	cfg := config.Demo()
	reg, err := cfg.BuildRegistry()
	if err != nil {
		return nil, err
	}
	deltas := lodes.CalibratedDeltaConfig()
	return server.Open(core.NewPublisher(data), reg, server.Options{
		NoiseSeed:   cfg.NoiseSeed,
		AdminKey:    cfg.AdminKey,
		DeltaSeed:   deltaSeed,
		DeltaConfig: &deltas,
		StateDir:    stateDir,
	})
}

// closeInProcess drains an in-process server and closes its store;
// Start followed by Shutdown is the exported way to do that.
func closeInProcess(srv *server.Server) error {
	svc, err := srv.Start("127.0.0.1:0", server.RunOptions{})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return svc.Shutdown(ctx)
}

// serverChild is a running server child, seen from the parent.
type serverChild struct {
	cmd   *exec.Cmd
	base  string        // http://host:port
	boot  time.Duration // exec → first /readyz 200
	lines chan string   // stdout lines after the listening line
	done  chan struct{} // closed once the process is reaped
}

var (
	childrenMu sync.Mutex
	children   = make(map[*serverChild]bool)
)

// startServer execs a server child over stateDir and waits until it
// answers /readyz with 200.
func startServer(scale, stateDir string, deltaSeed int64) (*serverChild, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, childArg, "-scale", scale, "-state-dir", stateDir,
		"-delta-seed", strconv.FormatInt(deltaSeed, 10))
	cmd.Stderr = os.Stderr
	// A child outliving a killed benchmark would hold its port and memory.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// The child prints a handful of lines in its lifetime (the listening
	// line and one per SIGUSR1), so this buffer never fills.
	c := &serverChild{cmd: cmd, lines: make(chan string, 64), done: make(chan struct{})}
	childrenMu.Lock()
	children[c] = true
	childrenMu.Unlock()
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			c.lines <- sc.Text()
		}
		cmd.Wait()
		close(c.lines)
		close(c.done)
	}()

	timeout := time.After(120 * time.Second)
	for c.base == "" {
		select {
		case line, ok := <-c.lines:
			if !ok {
				c.forget()
				return nil, fmt.Errorf("server child exited before listening")
			}
			if addr, found := strings.CutPrefix(line, "listening on "); found {
				c.base = "http://" + addr
			}
		case <-timeout:
			c.kill()
			return nil, fmt.Errorf("server child not listening after 120 s")
		}
	}
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(c.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.boot = time.Since(start)
				return c, nil
			}
		}
		select {
		case <-c.done:
			c.forget()
			return nil, fmt.Errorf("server child exited before ready")
		case <-timeout:
			c.kill()
			return nil, fmt.Errorf("server child not ready after 120 s")
		case <-time.After(time.Millisecond):
		}
	}
}

func (c *serverChild) pid() int { return c.cmd.Process.Pid }

func (c *serverChild) forget() {
	childrenMu.Lock()
	delete(children, c)
	childrenMu.Unlock()
}

// stop drains the child with SIGTERM and reaps it, killing it if the
// drain takes longer than a minute.
func (c *serverChild) stop() error {
	defer c.forget()
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(time.Minute):
		c.cmd.Process.Kill()
		<-c.done
		return fmt.Errorf("server child did not drain within a minute")
	}
	if !c.cmd.ProcessState.Success() {
		return fmt.Errorf("server child: %v", c.cmd.ProcessState)
	}
	return nil
}

// kill is kill -9 followed by reaping.
func (c *serverChild) kill() {
	defer c.forget()
	c.cmd.Process.Kill()
	<-c.done
}

// heapInuseMiB asks the child for its Go heap in use.
func (c *serverChild) heapInuseMiB() (float64, error) {
	if err := c.cmd.Process.Signal(syscall.SIGUSR1); err != nil {
		return 0, err
	}
	select {
	case line, ok := <-c.lines:
		if v, found := strings.CutPrefix(line, "heap_inuse_bytes "); ok && found {
			n, err := strconv.ParseFloat(v, 64)
			return n / (1 << 20), err
		}
		return 0, fmt.Errorf("unexpected server child line %q", line)
	case <-time.After(10 * time.Second):
		return 0, errors.New("server child did not report its heap")
	}
}

// stopAllChildren kills every child still running; the exit paths call it.
func stopAllChildren() {
	childrenMu.Lock()
	live := make([]*serverChild, 0, len(children))
	for c := range children {
		live = append(live, c)
	}
	childrenMu.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// cpuTime is a process's CPU time so far, at nanosecond resolution: the
// sum of its threads' on-CPU time from /proc/<pid>/task/*/schedstat
// (/proc/<pid>/stat counts in 10 ms ticks, too coarse for one restart).
// Go runtime threads do not exit, so no thread's time goes missing.
func cpuTime(pid int) (time.Duration, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread exited since the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("malformed schedstat of task %s", t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return time.Duration(total), nil
}

// peakRSSMiB is a process's resident-set high-water mark (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU is this process's user plus system CPU time, at microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
