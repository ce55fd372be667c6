package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

// children tracks every soupsd process the benchmark started, so that every
// exit path — a failed check, a panic, SIGINT — can kill and reap them. A
// run that leaves a server behind would poison the next run's numbers.
var children struct {
	mu   sync.Mutex
	live map[*soupsd]bool
}

func killAllChildren() {
	children.mu.Lock()
	var all []*soupsd
	for c := range children.live {
		all = append(all, c)
	}
	children.mu.Unlock()
	for _, c := range all {
		c.kill()
	}
}

// soupsd is one managed server process.
type soupsd struct {
	bin  string
	args []string // without -addr
	addr string
	base string
	cmd  *exec.Cmd
	// exited is closed once the process has been reaped.
	exited chan struct{}
	logf   *os.File
	killMu sync.Mutex // the signal handler may kill while the run is tearing down
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before soupsd binds it, so another process could take the port in
// between; waitReady then fails the run instead of measuring a stranger.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startSoupsd launches the server on a fresh port and waits until /readyz
// answers 200. The child's log goes to logPath (its tail is shown when the
// server never comes up).
func startSoupsd(bin string, args []string, logPath string, ctl *http.Client) (*soupsd, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	s := &soupsd{bin: bin, args: args, addr: addr, base: "http://" + addr}
	if s.logf, err = os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, err
	}
	if err := s.launch(ctl); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// launch starts the process (on the address picked at first start, so a
// restart keeps its URL) and waits for readiness.
func (s *soupsd) launch(ctl *http.Client) error {
	cmd := exec.Command(s.bin, append([]string{"-addr", s.addr}, s.args...)...)
	cmd.Stdout, cmd.Stderr = s.logf, s.logf
	// Should the benchmark die without running its clean-up (a crash, a
	// kill -9), the kernel takes the server down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", s.bin, err)
	}
	s.cmd = cmd
	children.mu.Lock()
	if children.live == nil {
		children.live = map[*soupsd]bool{}
	}
	children.live[s] = true
	children.mu.Unlock()

	exited := make(chan struct{})
	s.exited = exited
	go func() { _ = cmd.Wait(); close(exited) }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := ctl.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return fmt.Errorf("soupsd exited before it was ready (%v); log tail:\n%s", cmd.ProcessState, tail(s.logf.Name(), 2048))
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("soupsd not ready on %s after 60s; log tail:\n%s", s.addr, tail(s.logf.Name(), 2048))
		}
		time.Sleep(time.Millisecond)
	}
}

// kill sends SIGKILL and waits until the process has ended.
func (s *soupsd) kill() {
	s.killMu.Lock()
	defer s.killMu.Unlock()
	if s.cmd != nil {
		_ = s.cmd.Process.Kill()
		<-s.exited
		s.cmd = nil
	}
	children.mu.Lock()
	delete(children.live, s)
	children.mu.Unlock()
}

// close kills the process and closes its log.
func (s *soupsd) close() {
	s.kill()
	if s.logf != nil {
		s.logf.Close()
		s.logf = nil
	}
}

func (s *soupsd) pid() int { return s.cmd.Process.Pid }

// scrape reads /metrics.
func (s *soupsd) scrape(ctl *http.Client) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return loadgen.ScrapeMetrics(ctx, ctl, s.base)
}

func tail(path string, n int64) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if int64(len(raw)) > n {
		raw = raw[int64(len(raw))-n:]
	}
	return string(raw)
}

// procUsage is what /proc says a process has consumed so far.
type procUsage struct {
	cpu        time.Duration // utime+stime
	peakRSSKB  int64         // VmHWM
	writeBytes int64         // bytes the process caused to be sent to storage
	writeCalls int64         // write-family system calls (socket writes count too)
}

// clockTick is USER_HZ; Linux fixes it at 100 for every architecture Go
// supports.
const clockTick = 10 * time.Millisecond

// readProc reads the counters of a process. Missing files (no /proc, or /proc/<pid>/io hidden) leave zeros: the
// metrics they feed are then reported as 0 rather than guessed.
func readProc(pid int) procUsage {
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	var u procUsage
	if raw, err := os.ReadFile(filepath.Join(dir, "stat")); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the line, 12 and 13 after the ")".
		if i := strings.LastIndexByte(string(raw), ')'); i >= 0 {
			f := strings.Fields(string(raw[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseInt(f[11], 10, 64)
				st, _ := strconv.ParseInt(f[12], 10, 64)
				u.cpu = time.Duration(ut+st) * clockTick
			}
		}
	}
	u.peakRSSKB = procField(filepath.Join(dir, "status"), "VmHWM:")
	u.writeBytes = procField(filepath.Join(dir, "io"), "write_bytes:")
	u.writeCalls = procField(filepath.Join(dir, "io"), "syscw:")
	return u
}

// selfCPU is the CPU time this process has used so far. getrusage gives the
// scheduler's exact run time, where /proc/self/stat rounds to 10 ms ticks.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func procField(path, key string) int64 {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir whose base name
// matches (every file when match is nil).
func dirBytes(dir string, match func(name string) bool) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() && (match == nil || match(info.Name())) {
			total += info.Size()
		}
		return nil
	})
	return total
}
