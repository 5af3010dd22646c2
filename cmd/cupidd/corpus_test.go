package main

// Integration coverage for the corpus endpoints: the asynchronous
// clustering job lifecycle, the canonical families document, and the
// medoid-composed mapping route — including its agreement with the
// direct pairwise match.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
)

// corpusFixture registers two six-schema cliques — order-flavoured and
// invoice-flavoured DDL, each member with one private column — so the
// default clustering options split them into exactly two families.
func corpusFixture(t *testing.T, ts *httptest.Server) (ord, inv []string) {
	t.Helper()
	private := []string{"AlphaNote", "BravoNote", "CharlieNote", "DeltaNote", "EchoNote", "FoxtrotNote"}
	for i, p := range private {
		name := fmt.Sprintf("ord-%d", i)
		register(t, ts, name, "sql", fmt.Sprintf(`
CREATE TABLE Orders (
    OrderID INT PRIMARY KEY,
    CustomerName VARCHAR(64),
    TotalAmount DECIMAL(10,2),
    %s VARCHAR(32)
);`, p))
		ord = append(ord, name)
	}
	for i, p := range private {
		name := fmt.Sprintf("inv-%d", i)
		register(t, ts, name, "sql", fmt.Sprintf(`
CREATE TABLE Invoices (
    InvoiceRef INT PRIMARY KEY,
    WarehouseCode VARCHAR(64),
    SkuQuantity DECIMAL(10,2),
    %s VARCHAR(32)
);`, p))
		inv = append(inv, name)
	}
	return ord, inv
}

// clusterAndWait starts a clustering job and polls it to completion.
func clusterAndWait(t *testing.T, ts *httptest.Server) clusterJob {
	t.Helper()
	var j clusterJob
	if code := call(t, ts, http.MethodPost, "/corpus/cluster", nil, &j); code != http.StatusAccepted {
		t.Fatalf("POST /corpus/cluster: status %d", code)
	}
	if j.ID == 0 {
		t.Fatalf("clustering job has no id: %+v", j)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j.Status == "running" {
		if time.Now().After(deadline) {
			t.Fatalf("clustering job %d still running after 10s", j.ID)
		}
		time.Sleep(10 * time.Millisecond)
		if code := call(t, ts, http.MethodGet, fmt.Sprintf("/corpus/cluster/%d", j.ID), nil, &j); code != http.StatusOK {
			t.Fatalf("polling job %d: status %d", j.ID, code)
		}
	}
	if j.Status != "done" {
		t.Fatalf("clustering job failed: %+v", j)
	}
	return j
}

func TestServerCorpusClusterAndFamilies(t *testing.T) {
	ts := newTestServer(t)

	// Before any clustering: no families doc, and the family mapping
	// route refuses with a pointer at POST /corpus/cluster.
	if code, _ := tryCall(ts, http.MethodGet, "/corpus/families", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET /corpus/families before clustering: status %d, want 404", code)
	}

	ord, inv := corpusFixture(t, ts)
	var errResp struct {
		Error string `json:"error"`
	}
	if code := call(t, ts, http.MethodGet, "/mappings/"+ord[0]+"/"+ord[1]+"?via=family", nil, &errResp); code != http.StatusConflict {
		t.Fatalf("via=family before clustering: status %d, want 409", code)
	}

	j := clusterAndWait(t, ts)
	if j.Corpus != len(ord)+len(inv) || j.Families != 2 {
		t.Fatalf("clustering job reports corpus=%d families=%d, want %d and 2", j.Corpus, j.Families, len(ord)+len(inv))
	}

	// The canonical families document: two families, no clique mixing.
	var fams struct {
		Corpus   int `json:"corpus"`
		Families []struct {
			Medoid  string   `json:"medoid"`
			Members []string `json:"members"`
		} `json:"families"`
	}
	if code := call(t, ts, http.MethodGet, "/corpus/families", nil, &fams); code != http.StatusOK {
		t.Fatalf("GET /corpus/families: status %d", code)
	}
	if fams.Corpus != len(ord)+len(inv) || len(fams.Families) != 2 {
		t.Fatalf("families doc has corpus=%d families=%d, want %d and 2", fams.Corpus, len(fams.Families), len(ord)+len(inv))
	}
	for _, f := range fams.Families {
		for _, m := range f.Members {
			if m[:3] != f.Medoid[:3] {
				t.Errorf("family %q contains cross-clique member %q", f.Medoid, m)
			}
		}
	}

	// Job endpoint error paths.
	if code, _ := tryCall(ts, http.MethodGet, "/corpus/cluster/999", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job id: status %d, want 404", code)
	}
	if code, _ := tryCall(ts, http.MethodGet, "/corpus/cluster/nope", nil, nil); code != http.StatusBadRequest {
		t.Errorf("non-integer job id: status %d, want 400", code)
	}
}

// mappingResp is the GET /mappings/{a}/{c} response shape.
type mappingResp struct {
	Source string       `json:"source"`
	Target string       `json:"target"`
	Via    string       `json:"via"`
	Medoid string       `json:"medoid"`
	Cached bool         `json:"cached"`
	Leaves []serve.Pair `json:"leaves"`
}

func TestServerFamilyMappingAgreesWithDirect(t *testing.T) {
	ts := newTestServer(t)
	ord, inv := corpusFixture(t, ts)
	clusterAndWait(t, ts)

	var composed mappingResp
	if code := call(t, ts, http.MethodGet, "/mappings/"+ord[0]+"/"+ord[1]+"?via=family", nil, &composed); code != http.StatusOK {
		t.Fatalf("via=family: status %d", code)
	}
	if composed.Via != "family" || composed.Medoid[:3] != "ord" {
		t.Fatalf("composed mapping routed badly: %+v", composed)
	}
	if len(composed.Leaves) == 0 {
		t.Fatal("composed mapping has no leaf pairs")
	}

	var direct mappingResp
	if code := call(t, ts, http.MethodGet, "/mappings/"+ord[0]+"/"+ord[1], nil, &direct); code != http.StatusOK {
		t.Fatalf("via=direct: status %d", code)
	}
	if direct.Via != "direct" {
		t.Fatalf("default route is %q, want direct", direct.Via)
	}

	// Agreement: every pair the medoid composition derives is one the
	// direct match also finds, never with more claimed similarity (the
	// per-hop wsims multiply).
	directSim := make(map[[2]string]float64, len(direct.Leaves))
	for _, p := range direct.Leaves {
		directSim[[2]string{p.Source, p.Target}] = p.WSim
	}
	for _, p := range composed.Leaves {
		ws, ok := directSim[[2]string{p.Source, p.Target}]
		if !ok {
			t.Errorf("composed pair %s <-> %s not in the direct mapping", p.Source, p.Target)
			continue
		}
		if p.WSim > ws+1e-12 {
			t.Errorf("composed pair %s <-> %s claims wsim %v above the direct %v", p.Source, p.Target, p.WSim, ws)
		}
	}

	// Error paths: cross-family composition, unknown via, missing schema.
	if code, _ := tryCall(ts, http.MethodGet, "/mappings/"+ord[0]+"/"+inv[0]+"?via=family", nil, nil); code != http.StatusConflict {
		t.Errorf("cross-family via=family: status %d, want 409", code)
	}
	if code, _ := tryCall(ts, http.MethodGet, "/mappings/"+ord[0]+"/"+ord[1]+"?via=psychic", nil, nil); code != http.StatusBadRequest {
		t.Errorf("via=psychic: status %d, want 400", code)
	}
	if code, _ := tryCall(ts, http.MethodGet, "/mappings/nope/"+ord[1], nil, nil); code != http.StatusNotFound {
		t.Errorf("unregistered source: status %d, want 404", code)
	}
}
