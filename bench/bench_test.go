package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

func TestPercentileIsNearestRank(t *testing.T) {
	asc := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {91, 100}, {1, 10}, {100, 100}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {1, 50}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%v, want p%v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v := tail(xs); p != 95 || v != 190 {
		t.Errorf("tail = p%v %v, want p95 190", p, v)
	}
}

func TestStopwatchAveragesTheReadingsAroundALap(t *testing.T) {
	readings := []float64{1.25, 1.0, 1.5}
	sw := &stopwatch{last: 1.0, read: func() float64 {
		r := readings[0]
		readings = readings[1:]
		return r
	}}
	ran := 0
	for _, want := range []float64{1.125, 1.125, 1.25} {
		if got := sw.lap(func() { ran++ }); got != want {
			t.Errorf("lap %d ran under x%v, want x%v", ran, got, want)
		}
	}
	if ran != 3 || !reflect.DeepEqual(sw.slowdown, []float64{1.125, 1.125, 1.25}) {
		t.Errorf("%d laps ran, slowdowns %v", ran, sw.slowdown)
	}
	if hi, lo := quiet([]float64{3, 9, 1, 7}, "higher"), quiet([]float64{3, 9, 1, 7}, "lower"); hi != 7 || lo != 3 {
		t.Errorf("quietest rep but one = %v and %v, want 7 and 3", hi, lo)
	}
	if s := hostSlowdown(); !(s > 0.05 && s < 20) {
		t.Errorf("host clock reads x%v of the reference", s)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "parent", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "child", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "child", Start: at(20), End: at(50)},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "child", Start: at(60), End: at(120)}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "leaf", Start: at(12), End: at(17)},
	}
	got := map[string]selfStat{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	if st := got["parent"]; st.SelfMS != 20 || st.Total != 100 {
		t.Errorf("parent self %v total %v, want 20 and 100", st.SelfMS, st.Total)
	}
	if st := got["child"]; st.Count != 3 || st.SelfMS != 20+30+60-5 {
		t.Errorf("child count %d self %v, want 3 and 105", st.Count, st.SelfMS)
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil || len(events) != len(spans) {
		t.Fatalf("chrome trace: %d events, err %v", len(events), err)
	}
	if events[4].TID != 1 || events[4].Args["parent"] != float64(2) {
		t.Errorf("leaf event %+v should sit in its root's lane and name its parent", events[4])
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	w, err := findWorkload("tenants_adapters")
	if err != nil {
		t.Fatal(err)
	}
	a, b := genRequests(w, 7, "run", 2, 12), genRequests(w, 7, "run", 2, 12)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different requests")
	}
	if reflect.DeepEqual(a[0][0].prompt, genRequests(w, 8, "run", 2, 12)[0][0].prompt) {
		t.Error("different seeds gave the same first prompt")
	}
	if reflect.DeepEqual(a[0][0].prompt, genRequests(w, 7, "warm", 2, 12)[0][0].prompt) {
		t.Error("the warm-up replays the measured requests")
	}
	seen := [2]map[string]bool{{}, {}}
	for c, reqs := range a {
		for _, r := range reqs {
			seen[c][r.adapter] = true
		}
	}
	for name := range seen[0] {
		if seen[1][name] {
			t.Errorf("both clients use adapter %s", name)
		}
	}
	if len(seen[0]) != 2 || len(seen[1]) != 2 {
		t.Errorf("clients use %d and %d adapters, want 2 each", len(seen[0]), len(seen[1]))
	}

	x, err := genAdapters(3)
	if err != nil {
		t.Fatal(err)
	}
	y, _ := genAdapters(3)
	var bx, by bytes.Buffer
	if err := x[1].Save(&bx); err != nil {
		t.Fatal(err)
	}
	y[1].Save(&by)
	if !bytes.Equal(bx.Bytes(), by.Bytes()) {
		t.Error("same seed gave different adapter factors")
	}
	if in1, in2 := genTuneInputs(5), genTuneInputs(5); !reflect.DeepEqual(in1, in2) {
		t.Error("same seed gave different tuning inputs")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b float64
		want verdict
	}{
		{lower, 100, 109, ok}, {lower, 100, 111, regressed}, {lower, 100, 89, improved},
		{higher, 100, 91, ok}, {higher, 100, 89, regressed}, {higher, 100, 111, improved},
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

// fakeSet is a result set in which every workload reads v on every metric.
func fakeSet(v float64) resultSet {
	set := resultSet{Workloads: map[string]result{}}
	for _, w := range workloads {
		m := map[string]value{}
		for _, d := range endToEnd {
			m[d.Name] = value{Value: v, Unit: d.Unit}
		}
		set.Workloads[w.name] = result{Correct: true, Attempted: 10, Metrics: m}
	}
	return set
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, set resultSet) string {
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", fakeSet(100))
	same := write("b.json", fakeSet(101))
	slow := fakeSet(100)
	for _, d := range endToEnd {
		if d.Name == "ttft_ms_p50" { // just past its bound, whatever the bound is
			slow.Workloads["chat_f32"].Metrics[d.Name] = value{Value: 100 * (1 + d.Bound + 0.01), Unit: d.Unit}
		}
	}
	slower := write("c.json", slow)
	wrong := fakeSet(100)
	r := wrong.Workloads["tune_window"]
	r.Failed = 1
	wrong.Workloads["tune_window"] = r
	failing := write("d.json", wrong)

	var out bytes.Buffer
	if code := run([]string{"compare", base, same}, &out, io.Discard); code != 0 {
		t.Errorf("sets that agree: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"compare", base, slower}, &out, io.Discard); code != 1 {
		t.Errorf("a slower TTFT: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("no regressed verdict printed:\n%s", out.String())
	}
	if code := run([]string{"compare", base, failing}, io.Discard, io.Discard); code != 1 {
		t.Errorf("a new failure: exit %d, want 1", code)
	}
	if code := run([]string{"compare", base}, io.Discard, io.Discard); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONAgreesWithTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code %s: %s", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || !reflect.DeepEqual(b.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds != 10 {
		t.Errorf("run_seconds %d: the default of -seconds is 10", b.RunSeconds)
	}
}

// shrinkModels swaps in tiny models so that a whole workload, set-up and
// ladder included, runs in about a second.
func shrinkModels(t *testing.T) {
	serve, tune := serveModel, tuneModel
	t.Cleanup(func() { serveModel, tuneModel = serve, tune })
	serveModel = nn.Config{Vocab: 64, Dim: 32, Heads: 4, Layers: 2, Hidden: 64, MaxSeq: 128}
	tuneModel = nn.Config{Vocab: 32, Dim: 16, Heads: 2, Layers: 3, Hidden: 32, MaxSeq: 32, ExitHeads: true}
}

// smokeSeconds is about 1/50 of the nominal run: one or two operations a rep.
const smokeSeconds = 0.4

func TestSmokeEveryWorkload(t *testing.T) {
	shrinkModels(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			o := options{seed: 3, seconds: smokeSeconds, outDir: t.TempDir(), log: io.Discard}
			if code := runOne(w, o, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			var res result
			if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
				t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < reps {
				t.Errorf("result %+v", res)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("%s = %+v", d.Name, v)
				}
			}
			if left, _ := os.ReadDir(o.outDir); len(left) != 0 {
				t.Errorf("an untraced run left %d files behind", len(left))
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	shrinkModels(t)
	for _, name := range []string{"tenants_adapters", "batch8_packed4", "tune_window"} {
		t.Run(name, func(t *testing.T) {
			w, err := findWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			var log bytes.Buffer
			o := options{seed: 3, seconds: smokeSeconds, trace: true, outDir: t.TempDir(), log: &log}
			res, err := runWorkload(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(res.Metrics) != len(perLayer) {
				t.Errorf("correct %v, %d of %d per-layer metrics", res.Correct, len(res.Metrics), len(perLayer))
			}
			if name == "tenants_adapters" && res.Metrics["serve.adapter_swaps"].Value == 0 {
				t.Error("no adapter swap was counted on the adapter workload")
			}
			for _, file := range []string{name + ".spans.json", name + ".program.json"} {
				data, err := os.ReadFile(filepath.Join(o.outDir, file))
				if err != nil {
					t.Fatal(err)
				}
				var events []map[string]any
				if err := json.Unmarshal(data, &events); err != nil || len(events) == 0 {
					t.Errorf("%s: %d events, err %v", file, len(events), err)
				}
			}
			if !strings.Contains(log.String(), "predicted") || !strings.Contains(log.String(), "self_ms") {
				t.Errorf("report lacks the predicted-vs-measured lines or the self-time table:\n%s", log.String())
			}
		})
	}
}

func TestCorruptedTokenFailsTheRun(t *testing.T) {
	shrinkModels(t)
	w, err := findWorkload("chat_f32")
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	o := options{seed: 3, seconds: smokeSeconds, outDir: t.TempDir(), log: io.Discard}
	o.tamper = func(samples []sample) { samples[0].tokens[len(samples[0].tokens)-1] ^= 1 }
	if code := runOne(w, o, &stdout, io.Discard); code == 0 {
		t.Error("a corrupted token left the exit code at 0")
	}
	var res result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("result %+v, want exactly one failed request", res)
	}
}

func TestSoloDecodeIsDecoderGenerate(t *testing.T) {
	shrinkModels(t)
	w, err := findWorkload("chat_f32")
	if err != nil {
		t.Fatal(err)
	}
	m := nn.NewModel(serveModel, tensor.NewRNG(serveModelSeed))
	r := genRequests(w, 11, "run", 1, 1)[0][0]
	got, nll, err := soloDecode(nn.NewDecoder(m), r, w.outTokens)
	if err != nil {
		t.Fatal(err)
	}
	want, err := nn.NewDecoder(m).Generate(r.prompt, sampleConfig(r.seed, w.outTokens))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("soloDecode %v\nGenerate   %v", got, want)
	}
	if nll <= 0 {
		t.Errorf("negative log-likelihood %v of %d sampled tokens", nll, w.outTokens)
	}
}
