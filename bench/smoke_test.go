package main

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestSmoke runs every workload and the traced replay at toy scale against
// a freshly built cupidd and checks that every listed metric is emitted and
// every check passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cupidd")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{
		root: root, seed: 1, window: time.Second, warmup: 250 * time.Millisecond,
		conns: runtime.NumCPU(), toy: true, out: io.Discard,
	}
	if testing.Verbose() {
		e.out = os.Stdout
	}
	rec, res, err := execute(e, workloadTable, false, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadTable {
		w := rec.Workloads[wl.name]
		if w == nil {
			t.Fatalf("%s did not run", wl.name)
		}
		for _, c := range w.Checks {
			if !c.OK {
				t.Errorf("%s: %s: %s", wl.name, c.Name, c.Detail)
			}
		}
		for _, s := range e2eSpecs {
			m, ok := res.Metrics[wl.name+"."+s.name]
			if !ok || m["value"].(float64) <= 0 {
				t.Errorf("%s: %s missing or not positive: %v", wl.name, s.name, m)
			}
		}
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}

	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	rec, res, err = execute(e, workloadTable[:1], true, spans)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced replay failed its checks: %v", rec.Trace.Failed)
	}
	for _, s := range layerSpecs {
		if _, ok := res.Metrics[s.name]; !ok {
			t.Errorf("per-layer metric %s missing", s.name)
		}
	}
	if info, err := os.Stat(spans); err != nil || info.Size() == 0 {
		t.Errorf("no spans written: %v", err)
	}
}
