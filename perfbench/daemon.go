package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"mithra/internal/serve"
	"mithra/internal/watch"
)

// daemon is one running mithrad process.
type daemon struct {
	cmd       *exec.Cmd
	addr      string // decision listener (TCP)
	debugAddr string // /metrics.prom
	done      chan struct{}
	mu        sync.Mutex
	log       strings.Builder // stderr, for diagnostics
}

// daemonWorkers is mithrad's -workers in every run.
const daemonWorkers = 1

// startDaemon execs mithrad on loopback ports chosen by the kernel and
// waits until both the decision listener and the debug endpoint are
// announced.
func startDaemon(c *config, args []string) (*daemon, error) {
	args = append([]string{"-listen", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-workers", fmt.Sprint(daemonWorkers)}, args...)
	d := &daemon{cmd: exec.Command(c.mithrad(), args...), done: make(chan struct{})}
	d.cmd.Dir = c.workDir
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mithrad: %w", err)
	}
	addrs := make(chan [2]string, 2)
	scan := func(r io.Reader, prefix string, which int) {
		sc := bufio.NewScanner(r)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if which == 1 {
				d.mu.Lock()
				d.log.WriteString(line + "\n")
				d.mu.Unlock()
			}
			if i := strings.Index(line, prefix); i >= 0 && !found {
				if f := strings.Fields(line[i+len(prefix):]); len(f) > 0 {
					found = true
					addrs <- [2]string{fmt.Sprint(which), strings.TrimSuffix(f[0], "/")}
				}
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); scan(stdout, "listening on tcp ", 0) }()
	go func() { defer wg.Done(); scan(stderr, "debug/JSON endpoint: http://", 1) }()
	go func() {
		wg.Wait()    // pipes drained: the process has closed its output
		d.cmd.Wait() //nolint:errcheck // the exit status is read from ProcessState in stop
		close(d.done)
	}()
	timeout := time.After(20 * time.Second)
	for d.addr == "" || d.debugAddr == "" {
		select {
		case a := <-addrs:
			if a[0] == "0" {
				d.addr = a[1]
			} else {
				d.debugAddr = a[1]
			}
		case <-d.done:
			return nil, fmt.Errorf("mithrad exited during start-up:\n%s", d.stderr())
		case <-timeout:
			d.kill()
			return nil, fmt.Errorf("mithrad did not announce its listeners:\n%s", d.stderr())
		}
	}
	return d, nil
}

func (d *daemon) stderr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already exiting is fine
	<-d.done
}

// stop reads the daemon's peak resident set size (VmHWM, in MB), then
// drains it with SIGTERM and waits for it to exit.
func (d *daemon) stop() (peakMB float64, err error) {
	peakMB, err = vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		d.kill()
		return 0, err
	}
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // exit is awaited below
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return 0, fmt.Errorf("mithrad did not drain within 30s")
	}
	if !d.cmd.ProcessState.Success() {
		return peakMB, fmt.Errorf("mithrad exited with %v:\n%s", d.cmd.ProcessState, d.stderr())
	}
	return peakMB, nil
}

// scrape reads the daemon's counters from /metrics.prom, keyed by their
// registry names with the exposition prefix removed.
func (d *daemon) scrape() (map[string]float64, error) {
	cl := http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Get("http://" + d.debugAddr + "/metrics.prom")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m, err := watch.ParseProm(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[strings.TrimPrefix(k, "mithra_")] = v
	}
	return out, nil
}

// dial opens one decision connection with Nagle off (Go's default).
func (d *daemon) dial() (net.Conn, error) {
	return net.DialTimeout("tcp", d.addr, 10*time.Second)
}

// bootDaemon starts mithrad and asks it for one decision — request id
// with input in — measuring set-up: from exec until that decision is
// answered.
func bootDaemon(c *config, args []string, bench string, id uint32, in []float64) (*daemon, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(c, args)
	if err != nil {
		return nil, 0, err
	}
	cl, err := serve.Dial("tcp", d.addr)
	if err == nil {
		_, err = cl.Decide(bench, id, in)
		cl.Close()
	}
	setup := time.Since(t0).Seconds()
	if err != nil {
		d.kill()
		return nil, 0, fmt.Errorf("first decision: %w\n%s", err, d.stderr())
	}
	return d, setup, nil
}

// vmHWM reads a process's peak resident set size, in MB, from its
// /proc status file. (The rusage of a child started by Go is no use
// here: the child is forked sharing the parent's memory, so its maximum
// counts the parent's.)
func vmHWM(statusPath string) (float64, error) {
	data, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("%s: %q: %w", statusPath, line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", statusPath)
}

// promKey is the exposition spelling of a dotted registry name.
func promKey(name string) string { return strings.ReplaceAll(name, ".", "_") }

func ensureDir(path string) error { return os.MkdirAll(path, 0o755) }
