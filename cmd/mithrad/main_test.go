package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mithra/internal/axbench"
	"mithra/internal/core"
	"mithra/internal/serve"
	"mithra/internal/stats"
)

// compiledBlob builds one exported deployment (test scale) shared by
// every test in the package — compilation dominates the test's cost.
var compiledBlob = sync.OnceValues(func() ([]byte, error) {
	b, err := axbench.New("fft")
	if err != nil {
		return nil, err
	}
	ctx, err := core.NewContext(b, core.TestOptions())
	if err != nil {
		return nil, err
	}
	dep, err := ctx.Deploy(stats.Guarantee{QualityLoss: 0.05, SuccessRate: 0.6, Confidence: 0.9})
	if err != nil {
		return nil, err
	}
	return dep.Export()
})

func snapshotFile(t *testing.T) string {
	t.Helper()
	blob, err := compiledBlob()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prog.bin")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// syncBuffer makes the output buffers safe to inspect while run() is
// still writing from its own goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no snapshot", []string{"-listen", "127.0.0.1:0"}, 2},
		{"no listener", []string{"-snapshot", "x.bin"}, 2},
		{"unknown flag", []string{"-bogus"}, 2},
		{"help", []string{"-h"}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errw syncBuffer
			stop := make(chan os.Signal, 1)
			if code := run(c.args, &out, &errw, stop); code != c.want {
				t.Errorf("exit = %d, want %d (stderr: %s)", code, c.want, errw.String())
			}
		})
	}
	var out, errw syncBuffer
	if code := run([]string{"-snapshot", "definitely-missing.bin", "-listen", "127.0.0.1:0"},
		&out, &errw, make(chan os.Signal, 1)); code != 1 {
		t.Errorf("missing snapshot file: exit %d, want 1", code)
	}
}

// TestServeAndDrain boots mithrad on a Unix socket, serves a decision
// over the wire, then delivers SIGTERM and checks the daemon drains
// cleanly: exit 0, socket removed, journal written.
func TestServeAndDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a full deployment")
	}
	prog := snapshotFile(t)
	dir := t.TempDir()
	sock := filepath.Join(dir, "mithrad.sock")
	journal := filepath.Join(dir, "run.jsonl")

	var out, errw syncBuffer
	stop := make(chan os.Signal, 1)
	exited := make(chan int, 1)
	go func() {
		exited <- run([]string{
			"-snapshot", prog, "-unix", sock,
			"-sample-rate", "0.25", "-sample-seed", "17", "-freeze",
			"-journal", journal, "-drain-timeout", "5s",
		}, &out, &errw, stop)
	}()

	// Wait for the socket to accept.
	var cl *serve.Client
	var err error
	for i := 0; i < 1000; i++ {
		if cl, err = serve.Dial("unix", sock); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("daemon never came up: %v (stderr: %s)", err, errw.String())
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	blob, _ := compiledBlob()
	snap, err := serve.LoadSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, snap.Table.InputDim())
	for i := range in {
		in[i] = 0.25 * float64(i+1)
	}
	resp, err := cl.Decide(snap.Bench, 42, in)
	if err != nil {
		t.Fatal(err)
	}
	if want := snap.Table.ConcurrentView().Classify(in); resp.Precise != want {
		t.Fatalf("served decision %v, offline classifier %v", resp.Precise, want)
	}
	cl.Close()

	stop <- syscall.SIGTERM
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	if !strings.Contains(out.String(), "listening on unix") {
		t.Errorf("stdout missing listener line:\n%s", out.String())
	}
	if _, err := os.Stat(sock); !os.IsNotExist(err) {
		t.Errorf("socket not removed on drain: %v", err)
	}
	if raw, err := os.ReadFile(journal); err != nil || !strings.Contains(string(raw), `"mithrad"`) {
		t.Errorf("run journal missing or empty: %v", err)
	}
}

// TestSamplingArmsGuaranteeMonitor: sampling alone arms the guarantee
// monitor — there is no separate watch switch. A frozen daemon with
// -sample-rate 1 exposes the monitor's state gauge on /metrics.prom, and
// an injected drift over the first 128 request IDs (a full default
// window of bad observations) journals a guarantee transition.
func TestSamplingArmsGuaranteeMonitor(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a full deployment")
	}
	prog := snapshotFile(t)
	blob, err := compiledBlob()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.LoadSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sock := filepath.Join(dir, "mithrad.sock")
	journal := filepath.Join(dir, "run.jsonl")

	var out, errw syncBuffer
	stop := make(chan os.Signal, 1)
	exited := make(chan int, 1)
	go func() {
		exited <- run([]string{
			"-snapshot", prog, "-unix", sock, "-debug-addr", "127.0.0.1:0",
			"-sample-rate", "1", "-freeze", "-fault-plan", "seed=7,probe.drift=1@128",
			"-journal", journal, "-drain-timeout", "5s",
		}, &out, &errw, stop)
	}()
	var cl *serve.Client
	for i := 0; i < 1000; i++ {
		if cl, err = serve.Dial("unix", sock); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("daemon never came up: %v (stderr: %s)", err, errw.String())
	}
	// Inputs the table routes approximate: a precise routing always
	// counts as a success, so only these can violate the guarantee.
	view := snap.Table.ConcurrentView()
	var ins [][]float64
	for k := 0; len(ins) < 128 && k < 1<<16; k++ {
		in := make([]float64, snap.Table.InputDim())
		for j := range in {
			in[j] = float64((k*(j+7))%1024) / 1024
		}
		if !view.Classify(in) {
			ins = append(ins, in)
		}
	}
	if len(ins) < 128 {
		t.Fatalf("found only %d approximable inputs", len(ins))
	}
	if _, err := cl.DecideBatch(snap.Bench, 0, ins); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	m := regexp.MustCompile(`debug/JSON endpoint: http://([^/]+)/`).FindStringSubmatch(errw.String())
	if m == nil {
		t.Fatalf("no debug endpoint in stderr:\n%s", errw.String())
	}
	resp, err := http.Get("http://" + m[1] + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := "mithra_watch_guarantee_state_" + snap.Bench; !strings.Contains(string(prom), want) {
		t.Errorf("/metrics.prom missing %s:\n%s", want, prom)
	}

	// Drain releases the monitor's reorder buffer, so the full window of
	// drifted observations is re-checked before the journal closes.
	stop <- syscall.SIGTERM
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("exit %d\nstderr: %s", code, errw.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"name":"guarantee"`) {
		t.Errorf("journal carries no guarantee note:\n%s", raw)
	}
}

// TestMithradHelperProcess is not a test: it is the daemon body for the
// kill/restart test below, entered only when the test binary re-execs
// itself with MITHRAD_HELPER=1. Everything after "--" is mithrad's argv.
func TestMithradHelperProcess(t *testing.T) {
	if os.Getenv("MITHRAD_HELPER") != "1" {
		t.Skip("daemon body for TestKillRestartRecoversWALVersion")
	}
	var args []string
	for i, a := range os.Args {
		if a == "--" {
			args = os.Args[i+1:]
			break
		}
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	os.Exit(run(args, os.Stdout, os.Stderr, stop))
}

// TestKillRestartRecoversWALVersion is the crash-safety acceptance test
// at the process level: a mithrad serving a WAL-recovered snapshot is
// SIGKILLed mid-run — no drain, no cleanup — and a restart on the same
// state directory must come back serving the exact pre-crash snapshot
// version with identical decisions.
func TestKillRestartRecoversWALVersion(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a full deployment and re-execs the test binary")
	}
	prog := snapshotFile(t)
	blob, err := compiledBlob()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.LoadSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	sock := filepath.Join(dir, "mithrad.sock")

	// Seed the WAL with a version-3 record so recovery is distinguishable
	// from simply re-loading the snapshot file (which serves version 1).
	w, err := serve.OpenWAL(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.StoreSnapshot(snap.Bench, 3, blob); err != nil {
		t.Fatal(err)
	}
	w.Close()

	boot := func() (*exec.Cmd, *syncBuffer) {
		t.Helper()
		self, err := os.Executable()
		if err != nil {
			t.Fatal(err)
		}
		var logs syncBuffer // stdout+stderr interleaved; syncBuffer serializes writers
		cmd := exec.Command(self, "-test.run=TestMithradHelperProcess", "--",
			"-snapshot", prog, "-unix", sock, "-wal-dir", walDir, "-freeze")
		cmd.Env = append(os.Environ(), "MITHRAD_HELPER=1")
		cmd.Stdout = &logs
		cmd.Stderr = &logs
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd, &logs
	}
	dialUp := func(errw *syncBuffer) *serve.Client {
		t.Helper()
		var cl *serve.Client
		var err error
		for i := 0; i < 1000; i++ {
			if cl, err = serve.Dial("unix", sock); err == nil {
				return cl
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("daemon never came up: %v (stderr: %s)", err, errw.String())
		return nil
	}
	in := make([]float64, snap.Table.InputDim())
	for i := range in {
		in[i] = 0.25 * float64(i+1)
	}

	cmd1, errw1 := boot()
	cl := dialUp(errw1)
	resp, err := cl.Decide(snap.Bench, 1, in)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != 3 {
		t.Fatalf("pre-kill daemon serves version %d, want the WAL-recovered 3 (stderr: %s)",
			resp.Version, errw1.String())
	}
	preKill := resp.Precise
	cl.Close()

	// Hard kill: SIGKILL cannot be caught, so nothing drains and the
	// socket file is left stale — exactly a crash.
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd1.Wait() //nolint:errcheck // exit status is "signal: killed" by design

	cmd2, errw2 := boot()
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM) //nolint:errcheck
		cmd2.Wait()                          //nolint:errcheck
	}()
	cl2 := dialUp(errw2)
	defer cl2.Close()
	resp2, err := cl2.Decide(snap.Bench, 2, in)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Version != 3 {
		t.Fatalf("restarted daemon serves version %d, want the pre-crash 3 (stderr: %s)",
			resp2.Version, errw2.String())
	}
	if resp2.Precise != preKill {
		t.Fatalf("restarted decision %v differs from pre-crash %v", resp2.Precise, preKill)
	}
	if !strings.Contains(errw2.String(), "wal: recovered bench="+snap.Bench+" at version 3") {
		t.Errorf("restart log missing WAL recovery line:\n%s", errw2.String())
	}

	// Graceful shutdown of the restarted daemon still works on the
	// recovered state (SIGTERM → drain → exit 0).
	cmd2.Process.Signal(syscall.SIGTERM) //nolint:errcheck
	done := make(chan error, 1)
	go func() { done <- cmd2.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("restarted daemon did not drain cleanly: %v\nstderr: %s", err, errw2.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("restarted daemon did not exit after SIGTERM")
	}
}
