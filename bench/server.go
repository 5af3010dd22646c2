package main

import (
	"bufio"
	"bytes"
	"context"
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
	"sync"
	"syscall"
	"time"
)

// buildCupidd compiles ./cmd/cupidd from the repository at root into dir
// and returns the binary's path.
func buildCupidd(root, dir string) (string, error) {
	bin := filepath.Join(dir, "cupidd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cupidd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cupidd: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running cupidd process.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	exited  chan struct{} // closed once the process has been reaped
	waitErr error
	said    chan struct{} // signalled on each line the server logs
	logDone chan struct{} // closed once the server's log is copied out
}

// procs tracks every server the benchmark started, so an interrupted run
// still kills and reaps them all.
var procs = struct {
	sync.Mutex
	live map[*server]bool
}{live: map[*server]bool{}}

// killAll kills and reaps every server still running.
func killAll() {
	procs.Lock()
	live := make([]*server, 0, len(procs.live))
	for s := range procs.live {
		live = append(live, s)
	}
	procs.Unlock()
	for _, s := range live {
		s.kill()
	}
}

// freePort asks the kernel for an unused loopback port. Another process
// could take it before cupidd binds it; startServer retries when it does.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs cupidd on dataDir with its default flags and waits for
// /readyz. It returns the server and the time from exec to ready.
func startServer(bin, dataDir, logPath string, gomaxprocs int) (*server, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		s, took, err := startOnce(bin, dataDir, logPath, gomaxprocs, port)
		if err == nil {
			return s, took, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func startOnce(bin, dataDir, logPath string, gomaxprocs, port int) (*server, time.Duration, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-data", dataDir)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	cmd.Stdout, cmd.Stderr = pw, pw
	// The kernel kills the server if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	err = cmd.Start()
	pw.Close() // the child holds its own copy
	if err != nil {
		pr.Close()
		logf.Close()
		return nil, 0, fmt.Errorf("starting cupidd: %w", err)
	}
	s := &server{
		cmd: cmd, base: "http://" + addr, dataDir: dataDir,
		exited: make(chan struct{}), said: make(chan struct{}, 1), logDone: make(chan struct{}),
	}
	procs.Lock()
	procs.live[s] = true
	procs.Unlock()
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	// Copy the server's output to its log until the process exits, and
	// signal every line: cupidd logs as it finishes recovery and opens its
	// listener, so readiness is probed the moment it says something.
	go func() {
		defer close(s.logDone)
		defer logf.Close()
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			fmt.Fprintln(logf, sc.Text())
			select {
			case s.said <- struct{}{}:
			default:
			}
		}
	}()
	if err := s.waitReady(60 * time.Second); err != nil {
		s.kill()
		return nil, 0, fmt.Errorf("%w (log: %s)", err, tail(logPath))
	}
	return s, time.Since(t0), nil
}

// probeClient polls readiness on its own connections, outside the load
// generator's connection budget.
var probeClient = &http.Client{Timeout: 2 * time.Second}

func (s *server) ready() bool {
	resp, err := probeClient.Get(s.base + "/readyz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// waitReady polls /readyz until it answers 200, the process exits or the
// timeout passes. Go sleeps no shorter than about a millisecond, which is a
// quarter of an empty repository's whole start-up, so a timer alone would
// quantize setup_s and recover_s. Each line the server logs therefore
// starts a burst of back-to-back probes, which catches the listener
// opening within tens of microseconds; between lines a 1 ms timer is the
// fallback.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.After(timeout)
	for {
		if s.ready() {
			return nil
		}
		select {
		case <-s.exited:
			return fmt.Errorf("cupidd exited before becoming ready: %v", s.waitErr)
		case <-deadline:
			return fmt.Errorf("cupidd not ready within %v", timeout)
		case <-s.said:
			for burst := time.Now().Add(2 * time.Millisecond); time.Now().Before(burst); {
				if s.ready() {
					return nil
				}
			}
		case <-time.After(time.Millisecond):
		}
	}
}

// kill sends SIGKILL and waits until the process has been reaped and its
// output copied out.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only when the process already exited
	<-s.exited
	<-s.logDone
	procs.Lock()
	delete(procs.live, s)
	procs.Unlock()
}

// stop asks for a graceful shutdown (SIGTERM drains and closes the
// journal) and falls back to SIGKILL after ten seconds.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
	}
	s.kill()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// tail returns the last lines of a log file, for error messages.
func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// procSample is one reading of a process's resource counters.
type procSample struct {
	cpu     time.Duration // utime + stime, all threads
	written int64         // bytes the process caused to be written to storage
	syscw   int64         // write-family syscalls, sockets included
	hwmKB   int64         // peak resident set (VmHWM)
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times: 100 on every mainstream Linux build.
const clockTick = 10 * time.Millisecond

// readProc samples /proc/<pid> (use "self" for this process).
func readProc(pid string) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(stat[bytes.LastIndexByte(stat, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return s, fmt.Errorf("parsing /proc/%s/stat: %w", pid, err)
	}
	s.cpu = time.Duration(ut+st) * clockTick
	if err := scanKV("/proc/"+pid+"/io", func(k, v string) {
		n, _ := strconv.ParseInt(v, 10, 64)
		switch k {
		case "write_bytes":
			s.written = n
		case "syscw":
			s.syscw = n
		}
	}); err != nil {
		return s, err
	}
	err = scanKV("/proc/"+pid+"/status", func(k, v string) {
		if k == "VmHWM" {
			s.hwmKB, _ = strconv.ParseInt(strings.TrimSuffix(v, " kB"), 10, 64)
		}
	})
	return s, err
}

// scanKV calls fn for each "key: value" line of a /proc file.
func scanKV(path string, fn func(k, v string)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok {
			fn(strings.TrimSpace(k), strings.TrimSpace(v))
		}
	}
	return sc.Err()
}

// client is the load generator's HTTP client: at most conns connections to
// the server, kept alive across requests.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// statusError is a non-2xx answer.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// do sends one request and returns the body of a 2xx answer.
func (c *client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, &statusError{code: resp.StatusCode, body: firstLine(string(b))}
	}
	return b, nil
}

// dirBytes returns the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// walGeneration returns the newest journal generation in a data dir (the
// N of wal-N.log): every compaction starts a new one.
func walGeneration(dir string) int {
	ents, _ := os.ReadDir(dir)
	gen := 0
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &n); err == nil && n > gen {
			gen = n
		}
	}
	return gen
}
