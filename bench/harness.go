package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	cupid "repro"
	"repro/internal/core"
	"repro/internal/registry"
)

// env is what every workload of one benchmark invocation shares.
type env struct {
	root   string // repository root
	work   string // this invocation's scratch directory
	cupidd string // server binary
	seed   int64
	window time.Duration // measured traffic per workload
	warmup time.Duration // unrecorded traffic before the window
	conns  int           // client connections and server GOMAXPROCS: nproc
	toy    bool          // toy scale, for the smoke test
	out    io.Writer     // human-readable report
}

// Set-up and recovery are timed repeatedly and reported as medians, so one
// slow exec or fsync does not move them: at least minSetups set-ups and
// minRestarts restarts, and more, up to maxReps, until repBudget of them
// has been timed. A 4 ms empty-repository start thus gets 25 samples and a
// 1 s corpus load five.
const (
	minSetups   = 5
	minRestarts = 3
	maxReps     = 25
	repBudget   = time.Second
)

// enough reports whether n timed repetitions that took spent in all are
// enough, given the minimum count.
func enough(n, least int, spent time.Duration) bool {
	return n >= maxReps || (n >= least && spent >= repBudget)
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind a percentile or median
}

// check is one verified property of the server's answers.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// workloadRecord is everything one workload run produced.
type workloadRecord struct {
	Params    params            `json:"params"`
	Metrics   map[string]metric `json:"metrics"`
	Checks    []check           `json:"checks"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Invalid   string            `json:"invalid,omitempty"` // why the run does not count, if it does not
}

// run is one workload's execution against its own cupidd.
type run struct {
	*env
	wl      workload
	p       params
	rec     *workloadRecord
	dir     string
	dataDir string
	srv     *server
	cl      *client
	// Resource use over the measured window.
	elapsed     time.Duration
	serverCPU   time.Duration
	benchCPU    time.Duration
	written     int64
	syscw       int64
	compactions int
}

func newRun(e *env, wl workload) (*run, error) {
	dir := filepath.Join(e.work, wl.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := paramsFor(wl.name, e.toy)
	return &run{
		env: e, wl: wl, p: p, dir: dir,
		rec: &workloadRecord{Params: p, Metrics: map[string]metric{}},
	}, nil
}

func (r *run) metric(name string, v float64, unit string, n int) {
	r.rec.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// check records one verification; a failed one counts as a failed
// operation.
func (r *run) check(name string, ok bool, detail string) {
	r.rec.Checks = append(r.rec.Checks, check{Name: name, OK: ok, Detail: detail})
	r.rec.Attempted++
	if !ok {
		r.rec.Failed++
	}
}

// count adds a recorder's requests to the attempted and failed totals.
func (r *run) count(rec *recorder) {
	r.rec.Attempted += rec.ok + rec.failed
	r.rec.Failed += rec.failed
	for msg, n := range rec.errText {
		fmt.Fprintf(r.out, "%s: %d× %s\n", r.wl.name, n, msg)
	}
}

// setup starts cupidd on a fresh data dir and registers the corpus over
// HTTP, setupReps times; the last server stays up. setup_s is the median
// time from exec to a ready server holding the whole corpus.
func (r *run) setup(docs []doc) error {
	var took []float64
	var spent time.Duration
	for k := 0; ; k++ {
		r.dataDir = filepath.Join(r.dir, fmt.Sprintf("data%d", k))
		t0 := time.Now()
		srv, _, err := startServer(r.cupidd, r.dataDir, filepath.Join(r.dir, "cupidd.log"), r.conns)
		if err != nil {
			return err
		}
		r.srv = srv
		r.cl = newClient(srv.base, r.conns)
		if err := r.load(docs); err != nil {
			return err
		}
		d := time.Since(t0)
		took, spent = append(took, d.Seconds()), spent+d
		if enough(len(took), minSetups, spent) {
			break
		}
		r.cl.close()
		srv.kill()
		if err := os.RemoveAll(r.dataDir); err != nil {
			return err
		}
	}
	r.metric("setup_s", median(took), "s", len(took))
	return nil
}

// load registers docs over all client connections.
func (r *run) load(docs []doc) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, r.conns)
	for c := 0; c < r.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(docs); i = int(next.Add(1) - 1) {
				d := docs[i]
				if _, err := r.cl.do(context.Background(), http.MethodPost, "/schemas", registerBody(d.Name, d)); err != nil {
					errs[c] = fmt.Errorf("registering %s: %w", d.Name, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// measure runs the measured window and reads the server's and the
// benchmark's resource counters around it.
func (r *run) measure(window func()) error {
	pid := fmt.Sprint(r.srv.pid())
	before, err := readProc(pid)
	if err != nil {
		return err
	}
	self0, err := readProc("self")
	if err != nil {
		return err
	}
	gen0 := walGeneration(r.dataDir)
	t0 := time.Now()
	window()
	r.elapsed = time.Since(t0)
	after, err := readProc(pid)
	if err != nil {
		return err
	}
	self1, err := readProc("self")
	if err != nil {
		return err
	}
	r.serverCPU = after.cpu - before.cpu
	r.benchCPU = self1.cpu - self0.cpu
	r.written = after.written - before.written
	r.syscw = after.syscw - before.syscw
	r.compactions = walGeneration(r.dataDir) - gen0
	r.metric("rss_peak_mb", float64(after.hwmKB)/1024, "MB", 0)
	if total := r.serverCPU + r.benchCPU; total > 0 {
		r.metric("loadgen.cpu_share", float64(r.benchCPU)/float64(total), "ratio", 0)
	}
	return nil
}

// throughput records the window's completed operations as a rate and the
// server CPU each one cost.
func (r *run) throughput(ops int) {
	r.metric("ops_per_s", float64(ops)/r.elapsed.Seconds(), "1/s", ops)
	if ops > 0 {
		r.metric("cpu_ms_per_op", float64(r.serverCPU)/float64(time.Millisecond)/float64(ops), "ms", ops)
	}
}

// latency records the median and 90th percentile of a recorder's
// latencies, plus the highest percentile the sample supports.
func (r *run) latency(prefix string, rec *recorder) {
	ms := millis(rec.lat)
	n := len(ms)
	r.metric(prefix+"_p50_ms", percentile(ms, 50), "ms", n)
	r.metric(prefix+"_p90_ms", percentile(ms, 90), "ms", n)
	if p, ok := tailPercentile(n); ok && p > 90 {
		r.metric(fmt.Sprintf("%s_p%g_ms", prefix, p), percentile(ms, p), "ms", n)
	}
}

// lateness records how far behind its schedule the open-loop generator
// issued requests. Above lateLimitMS the run measured a starved generator
// as much as the server: it is marked invalid, and -compare leaves it out.
// It is not a failed operation, because what starves the generator on a
// shared host is the host, not cupidd.
func (r *run) lateness(late []time.Duration) {
	p99 := percentile(millis(late), 99)
	r.metric("loadgen.lateness_p99_ms", p99, "ms", len(late))
	if p99 > lateLimitMS {
		r.rec.Invalid = fmt.Sprintf("generator lateness p99 %.3f ms exceeds %g ms", p99, lateLimitMS)
	}
}

const lateLimitMS = 5.0

// restarts SIGKILLs the server and restarts it on the same data dir, again
// and again; recover_s is the median time from exec to ready.
func (r *run) restarts() error {
	var took []float64
	var spent time.Duration
	for !enough(len(took), minRestarts, spent) {
		r.cl.close()
		r.srv.kill()
		srv, d, err := startServer(r.cupidd, r.dataDir, filepath.Join(r.dir, "cupidd.log"), r.conns)
		if err != nil {
			return fmt.Errorf("restarting after SIGKILL: %w", err)
		}
		r.srv, r.cl = srv, newClient(srv.base, r.conns)
		took, spent = append(took, d.Seconds()), spent+d
	}
	r.metric("recover_s", median(took), "s", len(took))
	return nil
}

// checkNames verifies that the restarted server lists exactly want.
func (r *run) checkNames(want []string) {
	b, err := r.cl.do(context.Background(), http.MethodGet, "/schemas", nil)
	var list struct {
		Schemas []struct {
			Name string `json:"name"`
		} `json:"schemas"`
	}
	if err == nil {
		err = json.Unmarshal(b, &list)
	}
	got := make([]string, 0, len(list.Schemas))
	for _, s := range list.Schemas {
		got = append(got, s.Name)
	}
	w := append([]string(nil), want...)
	sort.Strings(w)
	sort.Strings(got)
	ok := err == nil && fmt.Sprint(got) == fmt.Sprint(w)
	detail := fmt.Sprintf("%d listed, %d acknowledged", len(got), len(w))
	if err != nil {
		detail = err.Error()
	}
	r.check("names after SIGKILL restart", ok, detail)
}

// walObservations records write amplification over the measured window.
// Storage bytes come from write_bytes, not wchar, which also counts the
// bytes of every HTTP response; syscw counts the one response write per
// operation too.
func (r *run) walObservations(writes int, userBytes, liveBytes int64) {
	r.metric("wal.compactions", float64(r.compactions), "count", 0)
	if writes > 0 && userBytes > 0 {
		r.metric("wal.write_bytes_per_user_byte", float64(r.written)/float64(userBytes), "ratio", writes)
		r.metric("wal.syscw_per_op", float64(r.syscw)/float64(writes), "count", writes)
	}
	if disk, err := dirBytes(r.dataDir); err == nil && liveBytes > 0 {
		r.metric("wal.disk_per_live_byte", float64(disk)/float64(liveBytes), "ratio", 0)
	}
}

// close stops the server gracefully and drops the client.
func (r *run) close() {
	if r.cl != nil {
		r.cl.close()
	}
	if r.srv != nil {
		r.srv.stop()
	}
}

// reference builds the in-process registry a correct server must agree
// with: the same documents parsed the same way, under cupidd's default
// configuration.
func reference(docs []doc) (*registry.Registry, error) {
	reg, err := registry.New(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	for _, d := range docs {
		s, err := cupid.ParseSchema(d.Name, "json", d.Content)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", d.Name, err)
		}
		if _, _, err := reg.Register(d.Name, s); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// prepareProbe parses and prepares an inline probe as the server does.
func prepareProbe(m *core.Matcher, d doc) (*core.Prepared, error) {
	s, err := cupid.ParseSchema("", "json", d.Content)
	if err != nil {
		return nil, err
	}
	return m.Prepare(s)
}

// batchReply is the part of a /match/batch answer the checks read.
type batchReply struct {
	Cached   bool         `json:"cached"`
	Degraded bool         `json:"degraded"`
	Results  []rankedName `json:"results"`
}

// rankedName is one ranking entry as the checks compare it.
type rankedName struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// sameRanking compares a server ranking with the reference bit for bit:
// names in order, scores printed with all 17 significant digits.
func sameRanking(got batchReply, want []registry.Ranked) (bool, string) {
	if len(got.Results) != len(want) {
		return false, fmt.Sprintf("%d results, reference has %d", len(got.Results), len(want))
	}
	for i, w := range want {
		g := got.Results[i]
		gs, ws := fmt.Sprintf("%.17g", g.Score), fmt.Sprintf("%.17g", w.Score)
		if g.Name != w.Entry.Name || gs != ws {
			return false, fmt.Sprintf("rank %d: %s %s, reference %s %s", i, g.Name, gs, w.Entry.Name, ws)
		}
	}
	return true, ""
}

// sample returns k distinct indexes drawn from candidates, in the order a
// seeded shuffle puts them.
func sample(candidates []int, k int, rng *rand.Rand) []int {
	c := append([]int(nil), candidates...)
	rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	if k < len(c) {
		c = c[:k]
	}
	return c
}
