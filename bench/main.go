// Command bench is the repository's end-to-end benchmark. It builds
// ./cmd/cupidd, starts it on a fresh data directory per workload with its
// default flags, drives it over loopback HTTP with seeded inputs, reads the
// server's CPU time, peak memory and I/O from /proc, checks every answer it
// can against an in-process reference, and prints each metric by name with
// its unit and sample count. It exits non-zero when a check fails.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-out FILE]
//	bash bench/run.sh -compare A.json B.json
//
// -trace 1 replays the same seeded inputs in-process instead, with a span
// around every call into a layer, and prints per-layer metrics. -compare
// judges two results files (each written by -out over three or more runs)
// against the regression bounds in BENCHMARK.json. bench/README.md lists
// the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()
	code := realMain(os.Args[1:], os.Stdout, os.Stderr)
	killAll()
	os.Exit(code)
}

// result is the last line the benchmark prints: one JSON object.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run only this workload (default: all, in order)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "measured window per workload, in seconds")
	traceOn := fs.Int("trace", 0, "1: replay the inputs in-process with spans and report per-layer metrics")
	spansPath := fs.String("spans", "", "with -trace 1, write the spans to this file as JSON lines")
	outPath := fs.String("out", "", "append this run to a results file, for -compare")
	compare := fs.Bool("compare", false, "compare two results files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two results files")
			return 2
		}
		return runCompare(filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	var selected []workload
	for _, wl := range workloadTable {
		if *only == "" || wl.name == *only {
			selected = append(selected, wl)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *only)
		return 2
	}
	window := time.Duration(*seconds) * time.Second
	e := &env{
		root: root, seed: *seed, window: window, warmup: min(3*time.Second, window/4),
		conns: runtime.NumCPU(), out: stdout,
	}
	rec, res, err := execute(e, selected, *traceOn == 1, *spansPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *outPath != "" {
		if err := appendRun(*outPath, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// findRoot returns the nearest directory, from the working directory up,
// that holds the cupidd sources.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "cupidd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/cupidd/main.go in the working directory or above it")
		}
		dir = parent
	}
}

// runRecord is one benchmark invocation as a results file stores it.
type runRecord struct {
	Meta      meta                       `json:"meta"`
	Trace     *traceRun                  `json:"trace,omitempty"`
	Workloads map[string]*workloadRecord `json:"workloads,omitempty"`
}

// execute runs the selected workloads (or the traced replay) in a scratch
// directory under .bench_build and removes it afterwards.
func execute(e *env, selected []workload, traced bool, spansPath string) (*runRecord, *result, error) {
	build := filepath.Join(e.root, ".bench_build")
	e.work = filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(e.work)
	rec := &runRecord{Meta: collectMeta(e)}
	res := &result{Correct: true, Metrics: map[string]map[string]any{}}
	if traced {
		t, err := runTrace(e)
		if err != nil {
			return nil, nil, err
		}
		rec.Trace = t
		printMetrics(e.out, "trace", t.Metrics)
		for _, f := range t.Failed {
			fmt.Fprintln(e.out, "trace: check failed:", f)
		}
		res.Attempted, res.Failed, res.Correct = t.Attempted, len(t.Failed), len(t.Failed) == 0
		if err := report(res, "", layerSpecs, t.Metrics); err != nil {
			return nil, nil, err
		}
		if spansPath != "" {
			if err := writeSpans(spansPath, t.spans); err != nil {
				return nil, nil, err
			}
		}
		return rec, res, nil
	}
	bin, err := buildCupidd(e.root, filepath.Join(build, "bin"))
	if err != nil {
		return nil, nil, err
	}
	e.cupidd = bin
	rec.Workloads = map[string]*workloadRecord{}
	for _, wl := range selected {
		r, err := newRun(e, wl)
		if err != nil {
			return nil, nil, err
		}
		err = wl.run(r)
		r.close()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		w := r.rec
		w.Metrics["error_ratio"] = metric{Value: ratio(w.Failed, w.Attempted), Unit: "ratio", N: w.Attempted}
		rec.Workloads[wl.name] = w
		printMetrics(e.out, wl.name, w.Metrics)
		for _, c := range w.Checks {
			if !c.OK {
				fmt.Fprintf(e.out, "%s: check failed: %s: %s\n", wl.name, c.Name, c.Detail)
			}
		}
		if w.Invalid != "" {
			fmt.Fprintf(e.out, "%s: run invalid: %s\n", wl.name, w.Invalid)
		}
		fmt.Fprintf(e.out, "%s: %d checks, %d operations attempted, %d failed\n", wl.name, len(w.Checks), w.Attempted, w.Failed)
		res.Attempted += w.Attempted
		res.Failed += w.Failed
		prefix := ""
		if len(selected) > 1 {
			prefix = wl.name + "."
		}
		if err := report(res, prefix, e2eSpecs, w.Metrics); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", wl.name, err)
		}
	}
	res.Correct = res.Failed == 0
	return rec, res, nil
}

// report copies the listed metrics into the final result line.
func report(res *result, prefix string, specs []metricSpec, got map[string]metric) error {
	for _, s := range specs {
		m, ok := got[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		res.Metrics[prefix+s.name] = map[string]any{"value": m.Value, "unit": s.unit}
	}
	return nil
}

// printMetrics prints one line per metric: name, value, unit and, where
// the value summarizes a sample, the sample count.
func printMetrics(w io.Writer, label string, ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := ms[k]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(w, "%-15s %-30s %14.6g %-6s%s\n", label, k, m.Value, m.Unit, n)
	}
}

// meta records the machine and settings a run measured.
type meta struct {
	Seed             int64   `json:"seed"`
	Recorded         string  `json:"recorded"`
	NProc            int     `json:"nproc"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	ServerGOMAXPROCS int     `json:"server_gomaxprocs"`
	Connections      int     `json:"connections"`
	CPUModel         string  `json:"cpu_model"`
	GoVersion        string  `json:"go_version"`
	Kernel           string  `json:"kernel"`
	DataFS           string  `json:"data_fs"`
	WindowS          float64 `json:"window_s"`
	WarmupS          float64 `json:"warmup_s"`
}

func collectMeta(e *env) meta {
	m := meta{
		Seed: e.seed, Recorded: time.Now().UTC().Format(time.RFC3339),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		ServerGOMAXPROCS: e.conns, Connections: e.conns,
		GoVersion: runtime.Version(), WindowS: e.window.Seconds(), WarmupS: e.warmup.Seconds(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	_ = scanKV("/proc/cpuinfo", func(k, v string) {
		if k == "model name" && m.CPUModel == "" {
			m.CPUModel = v
		}
	})
	m.DataFS = fsType(e.work)
	return m
}

// fsType names the filesystem holding dir, for the fsync costs it implies.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// resultsFile is what -out appends to and -compare reads.
type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

func appendRun(path string, rec *runRecord) error {
	var f resultsFile
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, *rec)
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
