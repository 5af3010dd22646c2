package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestBatchReplyEncoding pins the /match/batch reply bytes: each case's
// golden text is json.Compact of what the earlier map-built, indented
// reply (keys sorted by encoding/json) wrote for the same values, plus
// the closing newline, and decoding that text and encoding it again —
// the router's path — must reproduce it byte for byte.
func TestBatchReplyEncoding(t *testing.T) {
	results := []BatchResult{{Name: "po", Fingerprint: "f1", Score: 0.3, Leaves: []Pair{
		{Source: "a.X", Target: "po.X", WSim: 0.7, SSim: 0.6, LSim: 1.0 / 3},
	}}}
	const resultsJSON = `[{"name":"po","fingerprint":"f1","score":0.3,"leaves":[{"source":"a.X","target":"po.X","wsim":0.7,"ssim":0.6,"lsim":0.3333333333333333}]}]`
	checkReplyEncoding(t, []replyCase[BatchReply]{
		{"single node", BatchReply{
			CandidateBudget: 8, CandidatesScored: 12, Planned: true,
			Results: results, Source: "orders", Strategy: "indexed",
		}, `{"cached":false,"candidate_budget":8,"candidates_scored":12,"degraded":false,"planned":true,"results":` + resultsJSON + `,"source":"orders","strategy":"indexed"}
`},
		{"cached and degraded", BatchReply{
			Cached: true, CandidateBudget: 8, CandidatesScored: 12, Degraded: true,
			Planned: true, Results: []BatchResult{}, Source: "orders", Strategy: "indexed",
		}, `{"cached":true,"candidate_budget":8,"candidates_scored":12,"degraded":true,"planned":true,"results":[],"source":"orders","strategy":"indexed"}
`},
		{"router shards", BatchReply{
			CandidateBudget: 15, CandidatesScored: 7, Degraded: true, Results: results,
			Shards: []ShardStatus{
				{Shard: "http://a", OK: true, Strategy: "indexed"},
				{Shard: "http://b", Error: "status 500: boom"},
			},
			Source: "orders", Strategy: "mixed",
		}, `{"cached":false,"candidate_budget":15,"candidates_scored":7,"degraded":true,"planned":false,"results":` + resultsJSON + `,"shards":[{"shard":"http://a","ok":true,"strategy":"indexed"},{"shard":"http://b","ok":false,"error":"status 500: boom"}],"source":"orders","strategy":"mixed"}
`},
	})
}

// TestPairReplyEncoding pins the /match and /mappings reply bytes the
// same way: each golden is what the earlier map-built reply wrote, keys
// in encoding/json's sorted order, compacted.
func TestPairReplyEncoding(t *testing.T) {
	leaves := []Pair{{Source: "a.X", Target: "po.X", WSim: 0.7, SSim: 0.6, LSim: 1.0 / 3}}
	nonLeaves := []Pair{{Source: "a", Target: "po", WSim: 0.5, SSim: 0.5, LSim: 0.5}}
	const leavesJSON = `[{"source":"a.X","target":"po.X","wsim":0.7,"ssim":0.6,"lsim":0.3333333333333333}]`
	const nonLeavesJSON = `[{"source":"a","target":"po","wsim":0.5,"ssim":0.5,"lsim":0.5}]`
	checkReplyEncoding(t, []replyCase[MatchReply]{
		{"match", MatchReply{Leaves: leaves, NonLeaves: nonLeaves, SourceSchema: "a", TargetSchema: "po"},
			`{"cached":false,"leaves":` + leavesJSON + `,"nonLeaves":` + nonLeavesJSON + `,"sourceSchema":"a","targetSchema":"po"}
`},
		{"cached match, no elements", MatchReply{Cached: true, Leaves: []Pair{}, NonLeaves: []Pair{}, SourceSchema: "a", TargetSchema: "po"},
			`{"cached":true,"leaves":[],"nonLeaves":[],"sourceSchema":"a","targetSchema":"po"}
`},
	})
	checkReplyEncoding(t, []replyCase[MappingReply]{
		{"direct", MappingReply{Cached: true, Leaves: leaves, NonLeaves: nonLeaves, Source: "a", Target: "po", Via: "direct"},
			`{"cached":true,"leaves":` + leavesJSON + `,"nonLeaves":` + nonLeavesJSON + `,"source":"a","target":"po","via":"direct"}
`},
	})
}

// TestPairRepliesEncodeLikeTheirMaps: the declared reply types write the
// bytes of the map literals the handlers built before them.
func TestPairRepliesEncodeLikeTheirMaps(t *testing.T) {
	leaves := []Pair{{Source: "a.X", Target: "po.X", WSim: 0.7, SSim: 0.6, LSim: 1.0 / 3}}
	for _, c := range []struct {
		name          string
		reply, legacy any
	}{
		{"match", MatchReply{Cached: true, Leaves: leaves, NonLeaves: []Pair{}, SourceSchema: "a", TargetSchema: "po"},
			map[string]any{"sourceSchema": "a", "targetSchema": "po", "cached": true, "leaves": leaves, "nonLeaves": []Pair{}}},
		{"direct", MappingReply{Leaves: leaves, NonLeaves: leaves, Source: "a", Target: "po", Via: "direct"},
			map[string]any{"source": "a", "target": "po", "via": "direct", "cached": false, "leaves": leaves, "nonLeaves": leaves}},
	} {
		got, err := json.Marshal(c.reply)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(c.legacy)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: reply encodes as\n%s\nthe map as\n%s", c.name, got, want)
		}
	}
}

// replyCase is one golden reply encoding.
type replyCase[T any] struct {
	name  string
	reply T
	want  string
}

// checkReplyEncoding asserts WriteJSON writes each case's golden bytes,
// and that decoding them and encoding again reproduces them.
func checkReplyEncoding[T any](t *testing.T, cases []replyCase[T]) {
	t.Helper()
	encode := func(v any) string {
		rec := httptest.NewRecorder()
		WriteJSON(rec, 200, v)
		return rec.Body.String()
	}
	for _, c := range cases {
		if got := encode(c.reply); got != c.want {
			t.Errorf("%s: encoded\n%s\nwant\n%s", c.name, got, c.want)
		}
		var decoded T
		if err := json.Unmarshal([]byte(c.want), &decoded); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := encode(decoded); got != c.want {
			t.Errorf("%s: decode and re-encode changed the bytes:\n%s", c.name, got)
		}
	}
}

// TestTrimDropsSelfThenTruncates pins the batch rule: the source's own
// entry goes only when name and fingerprint both match, and truncation
// counts what is left.
func TestTrimDropsSelfThenTruncates(t *testing.T) {
	ranked := []BatchResult{{Name: "a", Fingerprint: "fa"}, {Name: "src", Fingerprint: "fs"}, {Name: "b", Fingerprint: "fb"}, {Name: "c", Fingerprint: "fc"}}
	for _, c := range []struct {
		selfName, selfFP string
		topK             int
		want             string
	}{
		{"src", "fs", 2, "[a b]"},
		{"src", "fs", 0, "[a b c]"},
		{"src", "other", 2, "[a src]"},
		{"", "", 3, "[a src b]"},
	} {
		var names []string
		for _, r := range Trim(ranked, c.selfName, c.selfFP, c.topK) {
			names = append(names, r.Name)
		}
		if got := fmt.Sprint(names); got != c.want {
			t.Errorf("Trim(%q, %q, %d) = %s, want %s", c.selfName, c.selfFP, c.topK, got, c.want)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d discardWriter) WriteHeader(int)             {}

// BenchmarkBatchReplyEncode measures WriteJSON of a top-10 batch reply
// whose results carry 32 leaf pairs each.
func BenchmarkBatchReplyEncode(b *testing.B) {
	results := make([]BatchResult, 10)
	for i := range results {
		leaves := make([]Pair, 32)
		for j := range leaves {
			leaves[j] = Pair{
				Source: fmt.Sprintf("probe.T%d.Group.Column%d", j/8, j),
				Target: fmt.Sprintf("schema%d.T%d.Group.Column%d", i, j/8, j),
				WSim:   0.5 + float64(j)/97, SSim: 0.5 + float64(i)/89, LSim: float64(j) / 31,
			}
		}
		results[i] = BatchResult{Name: fmt.Sprintf("schema%d", i), Fingerprint: fmt.Sprintf("%032x", i), Score: 0.9 - float64(i)/50, Leaves: leaves}
	}
	reply := BatchReply{CandidateBudget: 64, CandidatesScored: 200, Planned: true, Results: results, Source: "probe", Strategy: "indexed"}
	w := discardWriter{h: http.Header{}}
	b.ReportAllocs()
	for b.Loop() {
		WriteJSON(w, http.StatusOK, reply)
	}
}
