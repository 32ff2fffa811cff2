package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"edgellm/internal/fault"
	"edgellm/internal/obsv"
)

// TestRequestIDPropagation: a client-supplied X-Edgellm-Request-Id becomes
// the request's identity and is echoed on success responses; typed errors
// echo it too; a body id beats the header; absent both, the server
// generates one and still echoes it.
func TestRequestIDPropagation(t *testing.T) {
	m := testModel(430)
	_, ts := newTestServer(t, m, 1, ServerConfig{MaxQueue: 4})

	// Header-supplied ID on a success.
	resp, body := postGenerate(t, ts, generateRequest{Prompt: []int{1, 2}, MaxTokens: 3},
		map[string]string{"X-Edgellm-Request-Id": "hdr-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Edgellm-Request-Id"); got != "hdr-1" {
		t.Fatalf("echoed id = %q, want hdr-1", got)
	}
	var gr generateResponse
	if err := json.Unmarshal(body, &gr); err != nil || gr.ID != "hdr-1" {
		t.Fatalf("response id = %q (err %v), want hdr-1", gr.ID, err)
	}

	// Body id beats the header.
	resp, body = postGenerate(t, ts, generateRequest{ID: "body-1", Prompt: []int{1}, MaxTokens: 2},
		map[string]string{"X-Edgellm-Request-Id": "hdr-2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Edgellm-Request-Id"); got != "body-1" {
		t.Fatalf("echoed id = %q, want body-1", got)
	}

	// No id anywhere: the server generates one and echoes it.
	resp, body = postGenerate(t, ts, generateRequest{Prompt: []int{2}, MaxTokens: 2}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Edgellm-Request-Id"); got == "" {
		t.Fatal("success response missing generated request id")
	}

	// Typed errors carry and echo the id: bad request with a header id.
	resp, body = postGenerate(t, ts, generateRequest{Prompt: nil, MaxTokens: 2},
		map[string]string{"X-Edgellm-Request-Id": "hdr-err"})
	er := wantError(t, resp, body, http.StatusBadRequest, "bad_request")
	if er.ID != "hdr-err" {
		t.Fatalf("error body id = %q, want hdr-err", er.ID)
	}
	if got := resp.Header.Get("X-Edgellm-Request-Id"); got != "hdr-err" {
		t.Fatalf("error echoed id = %q, want hdr-err", got)
	}

	// Even a malformed body keeps the header identity.
	hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/generate", strings.NewReader("{nope"))
	hreq.Header.Set("X-Edgellm-Request-Id", "hdr-parse")
	raw, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(raw.Body)
	raw.Body.Close()
	er = wantError(t, raw, buf.Bytes(), http.StatusBadRequest, "bad_request")
	if er.ID != "hdr-parse" {
		t.Fatalf("parse-error id = %q, want hdr-parse", er.ID)
	}
}

// TestAccessLogOneRecordPerRequest: every request — success, validation
// reject, overload shed, wrong method — writes exactly one parseable JSONL
// record with the latency decomposition filled in where it applies.
func TestAccessLogOneRecordPerRequest(t *testing.T) {
	rec := obsv.New()
	obsv.SetGlobal(rec)
	defer obsv.SetGlobal(nil)

	var logBuf bytes.Buffer
	al := NewAccessLog(&logBuf)
	m := testModel(431)
	_, ts := newTestServer(t, m, 1, ServerConfig{MaxQueue: 2, AccessLog: al})

	// Success (unary).
	resp, body := postGenerate(t, ts, generateRequest{ID: "ok-1", Tenant: "acme", Prompt: []int{1, 2, 3}, MaxTokens: 6}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// Validation reject.
	resp, body = postGenerate(t, ts, generateRequest{ID: "bad-1", Prompt: nil, MaxTokens: 2}, nil)
	wantError(t, resp, body, http.StatusBadRequest, "bad_request")
	// Wrong method.
	raw, err := ts.Client().Get(ts.URL + "/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	// Streaming success.
	resp, body = postGenerate(t, ts, generateRequest{ID: "ok-2", Tenant: "acme", Prompt: []int{4}, MaxTokens: 4, Stream: true}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}

	if err := al.Close(); err != nil {
		t.Fatalf("access log error: %v", err)
	}
	recs, err := ReadAccessLog(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatalf("read access log: %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4: %s", len(recs), logBuf.String())
	}
	byID := map[string]AccessRecord{}
	for _, r := range recs {
		byID[r.ID] = r
	}

	ok1 := byID["ok-1"]
	if ok1.Code != "ok" || ok1.Status != http.StatusOK || ok1.Tenant != "acme" {
		t.Fatalf("ok-1 record = %+v", ok1)
	}
	if ok1.Tokens != 6 || ok1.PromptTokens != 3 {
		t.Fatalf("ok-1 tokens = %d/%d, want 6 continuation / 3 prompt", ok1.Tokens, ok1.PromptTokens)
	}
	if ok1.TTFTMS <= 0 || ok1.TotalMS <= 0 || ok1.TTFTMS > ok1.TotalMS {
		t.Fatalf("ok-1 latency decomposition implausible: %+v", ok1)
	}
	if ok1.Steps < int64(ok1.Tokens) {
		t.Fatalf("ok-1 steps = %d, want ≥ %d", ok1.Steps, ok1.Tokens)
	}
	bad1 := byID["bad-1"]
	if bad1.Code != "bad_request" || bad1.Status != http.StatusBadRequest {
		t.Fatalf("bad-1 record = %+v", bad1)
	}
	if bad1.TTFTMS != 0 || bad1.Tokens != 0 {
		t.Fatalf("reject should carry no decode fields: %+v", bad1)
	}
	ok2 := byID["ok-2"]
	if ok2.Code != "ok" || ok2.Tokens != 4 {
		t.Fatalf("ok-2 record = %+v", ok2)
	}
	// The method_not_allowed reject has no id; find it by code.
	found := false
	for _, r := range recs {
		if r.Code == "method_not_allowed" && r.Status == http.StatusMethodNotAllowed {
			found = true
		}
	}
	if !found {
		t.Fatalf("no method_not_allowed record in %s", logBuf.String())
	}

	// Per-tenant latency dists materialised under the tenant label.
	snap := rec.Snapshot()
	if d, ok := snap.Dists["serve.ttft_ms{tenant=acme}"]; !ok || d.Count != 2 {
		t.Fatalf("ttft dist = %+v ok=%v (dists %v)", d, ok, snap.Dists)
	}
	if d, ok := snap.Dists["serve.itl_ms{tenant=acme}"]; !ok || d.Count != 2 {
		t.Fatalf("itl dist = %+v ok=%v", d, ok)
	}
	// Span timeline materialised: request root plus reconstructed children.
	for _, name := range []string{"serve.request{tenant=acme}", "serve.queue", "serve.decode", "serve.flush", "serve.admission"} {
		if _, ok := snap.Spans[name]; !ok {
			t.Fatalf("span %q missing (spans %v)", name, snap.Spans)
		}
	}
}

// TestAccessLogStallAnnotated: a stall-killed stream's record carries the
// stalled verdict and the stall_killed degradation event.
func TestAccessLogStallAnnotated(t *testing.T) {
	var logBuf bytes.Buffer
	al := NewAccessLog(&logBuf)
	m := testModel(432)
	inj, err := fault.ParseSpec("stall=S1")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, m, 1, ServerConfig{
		MaxQueue: 2, StallTimeout: 50 * time.Millisecond, AccessLog: al, Injector: inj,
	})
	resp, body := postGenerate(t, ts, generateRequest{ID: "S1", Prompt: []int{1, 2}, MaxTokens: 6}, nil)
	wantError(t, resp, body, http.StatusGatewayTimeout, "stalled")
	if err := al.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAccessLog(bytes.NewReader(logBuf.Bytes()))
	if err != nil || len(recs) != 1 {
		t.Fatalf("records = %v (err %v), want 1", recs, err)
	}
	r := recs[0]
	if r.Code != "stalled" || r.Status != http.StatusGatewayTimeout {
		t.Fatalf("stall record = %+v", r)
	}
	hasEvent := false
	for _, ev := range r.Events {
		if ev == "stall_killed" {
			hasEvent = true
		}
	}
	if !hasEvent {
		t.Fatalf("stall record missing stall_killed event: %+v", r)
	}
}

// TestReadAccessLogMalformed: a malformed line yields the good prefix plus
// a typed MalformedRecordError carrying the line number.
func TestReadAccessLogMalformed(t *testing.T) {
	input := `{"ts":1,"id":"a","status":200,"code":"ok","total_ms":1}
{"ts":2,"id":"b","status":200,"code":"ok","total_ms":2}
{truncated garbage
`
	recs, err := ReadAccessLog(strings.NewReader(input))
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	var mal *MalformedRecordError
	if err == nil || !asMalformed(err, &mal) || mal.Line != 3 {
		t.Fatalf("err = %v, want MalformedRecordError at line 3", err)
	}
	// Nil-safety of the writer.
	var nilLog *AccessLog
	nilLog.Write(&AccessRecord{})
	if nilLog.Close() != nil {
		t.Fatal("nil AccessLog must be inert")
	}
}

func asMalformed(err error, target **MalformedRecordError) bool {
	for err != nil {
		if e, ok := err.(*MalformedRecordError); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestStatuszSLOMatchesStatus: with SLO objectives set, /statusz's slo
// block is each objective's Status over the global recorder, read when
// /statusz is asked: after ok and failed requests it equals Status over
// the same recorder, with the failures counted against availability.
func TestStatuszSLOMatchesStatus(t *testing.T) {
	rec := obsv.New()
	obsv.SetGlobal(rec)
	defer obsv.SetGlobal(nil)

	objs, err := obsv.ParseSLOSpec("p99_ttft_ms=500,availability=0.9")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.ParseSpec("cancel=C1,cancel=C2")
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(433)
	_, ts := newTestServer(t, m, 1, ServerConfig{MaxQueue: 4, Injector: inj, SLO: objs})

	for _, id := range []string{"ok1", "C1", "ok2", "C2", "ok3"} {
		resp, body := postGenerate(t, ts, generateRequest{ID: id, Prompt: []int{1, 2}, MaxTokens: 4}, nil)
		if strings.HasPrefix(id, "C") {
			wantError(t, resp, body, http.StatusInternalServerError, "cancelled")
		} else if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", id, resp.StatusCode, body)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		SLO []obsv.SLOStatus `json:"slo"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status.SLO) != len(objs) {
		t.Fatalf("statusz slo = %+v, want %d objectives", status.SLO, len(objs))
	}
	for i, o := range objs {
		if want := o.Status(rec); status.SLO[i] != want {
			t.Fatalf("statusz slo[%d] = %+v, want Status %+v", i, status.SLO[i], want)
		}
	}
	if a := status.SLO[1]; a.Objective != "availability" || a.Bad != 2 || a.Total != 5 || a.Met {
		t.Fatalf("availability = %+v, want 2 bad of 5, violated", a)
	}
}

// TestStatuszTeamMatchesCounters: after requests long enough to take
// prompt steps, /statusz's team block and the decode.team.* counters agree:
// the units every lane ran sum to the units posted, and each lane's ran and
// stolen counts are the ones /statusz reports.
func TestStatuszTeamMatchesCounters(t *testing.T) {
	rec := obsv.New()
	obsv.SetGlobal(rec)
	defer obsv.SetGlobal(nil)
	m := testModel(434)
	_, ts := newTestServer(t, m, 2, ServerConfig{MaxQueue: 4})
	prompt := make([]int, 20)
	for i := range prompt {
		prompt[i] = i + 1
	}
	for _, id := range []string{"t1", "t2", "t3"} {
		resp, body := postGenerate(t, ts, generateRequest{ID: id, Prompt: prompt, MaxTokens: 4}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", id, resp.StatusCode, body)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Team struct {
			Lanes       int
			Steps       uint64
			Units       uint64
			Ran, Stolen []uint64
		} `json:"team"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	team := status.Team
	var ran uint64
	for _, r := range team.Ran {
		ran += r
	}
	// Three requests of 20 prompt tokens and 4 outputs take at least 2 + 3
	// steps each.
	if team.Lanes < 1 || len(team.Ran) != team.Lanes || team.Steps < 3*5 || team.Units == 0 || ran != team.Units {
		t.Fatalf("statusz team = %+v, want the lanes' ran counts to sum to the units posted over ≥ 15 steps", team)
	}
	if got := rec.CounterTotal("decode.team.units"); uint64(got) != team.Units {
		t.Errorf("decode.team.units = %d, statusz units %d", got, team.Units)
	}
	if got := rec.CounterTotal("decode.team.steps"); uint64(got) != team.Steps {
		t.Errorf("decode.team.steps = %d, statusz steps %d", got, team.Steps)
	}
	for i := range team.Lanes {
		if got := rec.CounterTotal(fmt.Sprintf("decode.team.lane%d.ran", i)); uint64(got) != team.Ran[i] {
			t.Errorf("decode.team.lane%d.ran = %d, statusz %d", i, got, team.Ran[i])
		}
		if got := rec.CounterTotal(fmt.Sprintf("decode.team.lane%d.stolen", i)); uint64(got) != team.Stolen[i] {
			t.Errorf("decode.team.lane%d.stolen = %d, statusz %d", i, got, team.Stolen[i])
		}
	}
}
