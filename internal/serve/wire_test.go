package serve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
)

// TestBatchReplyEncoding pins the /match/batch reply bytes: each case's
// golden text is what the earlier map-built reply (keys sorted by
// encoding/json) wrote for the same values, and decoding that text and
// encoding it again — the router's path — must reproduce it byte for
// byte.
func TestBatchReplyEncoding(t *testing.T) {
	results := []BatchResult{{Name: "po", Fingerprint: "f1", Score: 0.3, Leaves: []Pair{
		{Source: "a.X", Target: "po.X", WSim: 0.7, SSim: 0.6, LSim: 1.0 / 3},
	}}}
	const resultsJSON = `[
    {
      "name": "po",
      "fingerprint": "f1",
      "score": 0.3,
      "leaves": [
        {
          "source": "a.X",
          "target": "po.X",
          "wsim": 0.7,
          "ssim": 0.6,
          "lsim": 0.3333333333333333
        }
      ]
    }
  ]`
	cases := []struct {
		name  string
		reply BatchReply
		want  string
	}{
		{"single node", BatchReply{
			CandidateBudget: 8, CandidatesScored: 12, Planned: true,
			Results: results, Source: "orders", Strategy: "indexed",
		}, `{
  "cached": false,
  "candidate_budget": 8,
  "candidates_scored": 12,
  "degraded": false,
  "planned": true,
  "results": ` + resultsJSON + `,
  "source": "orders",
  "strategy": "indexed"
}
`},
		{"cached and degraded", BatchReply{
			Cached: true, CandidateBudget: 8, CandidatesScored: 12, Degraded: true,
			Planned: true, Results: []BatchResult{}, Source: "orders", Strategy: "indexed",
		}, `{
  "cached": true,
  "candidate_budget": 8,
  "candidates_scored": 12,
  "degraded": true,
  "planned": true,
  "results": [],
  "source": "orders",
  "strategy": "indexed"
}
`},
		{"router shards", BatchReply{
			CandidateBudget: 15, CandidatesScored: 7, Degraded: true, Results: results,
			Shards: []ShardStatus{
				{Shard: "http://a", OK: true, Strategy: "indexed"},
				{Shard: "http://b", Error: "status 500: boom"},
			},
			Source: "orders", Strategy: "mixed",
		}, `{
  "cached": false,
  "candidate_budget": 15,
  "candidates_scored": 7,
  "degraded": true,
  "planned": false,
  "results": ` + resultsJSON + `,
  "shards": [
    {
      "shard": "http://a",
      "ok": true,
      "strategy": "indexed"
    },
    {
      "shard": "http://b",
      "ok": false,
      "error": "status 500: boom"
    }
  ],
  "source": "orders",
  "strategy": "mixed"
}
`},
	}
	encode := func(v any) string {
		rec := httptest.NewRecorder()
		WriteJSON(rec, 200, v)
		return rec.Body.String()
	}
	for _, c := range cases {
		if got := encode(c.reply); got != c.want {
			t.Errorf("%s: encoded\n%s\nwant\n%s", c.name, got, c.want)
		}
		var decoded BatchReply
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
