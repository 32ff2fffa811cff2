// Command bench is the repository's one end-to-end benchmark: four serving
// workloads and the paper's tuning loop, each reporting the same end-to-end
// metrics, with a traced mode that adds per-layer numbers. See README.md.
//
//	go run ./bench                       every workload, each in a child process
//	go run ./bench --workload chat_f32   one workload, in this process
//	go run ./bench compare A.json B.json verdict per workload and metric
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the exit, so tests can read the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload, in this process (default: all, one child process each)")
	seed := fs.Int64("seed", 1, "seed of every generated input: prompts, sampling seeds, adapter factors, tuning corpus")
	seconds := fs.Float64("seconds", 10, "nominal length of the measured phase; every operation count scales with it")
	trace := fs.Int("trace", 0, "1: report the per-layer metrics (program recorder on, benchmark spans, ladder probes) instead of the end-to-end ones")
	procs := fs.Int("procs", 0, "GOMAXPROCS (default: the workload's own, 2 for the HTTP workloads and 1 for the others)")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for trace files, result sets and scratch inputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see bench/README.md")
		return 2
	}
	if *workload == "" {
		return runAll(args, *seed, *seconds, *trace, *procs, *out, stdout, stderr)
	}
	w, err := findWorkload(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *procs == 0 {
		*procs = w.procs
	}
	runtime.GOMAXPROCS(*procs)
	return runOne(w, options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out, log: stdout}, stdout, stderr)
}

// runOne runs one workload in this process and prints its result as the
// last line of stdout. A wrong output makes the exit code non-zero.
func runOne(w spec, o options, stdout, stderr io.Writer) int {
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// resultSet is what a full run writes and `compare` reads.
type resultSet struct {
	Meta      meta              `json:"meta"`
	Workloads map[string]result `json:"workloads"`
}

// meta records where and how a result set was measured.
type meta struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Trace   int     `json:"trace"`
	NProc   int     `json:"nproc"`
	Procs   int     `json:"procs"` // --procs; 0 is each workload's own GOMAXPROCS
	Go      string  `json:"go"`
	Commit  string  `json:"commit,omitempty"`
	When    string  `json:"when"`
}

// commit is the VCS revision the binary was built from, when Go stamped one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

// runAll runs every workload in its own child process, one after another,
// so that each gets a clean peak_rss_mb and setup_s, and writes the result
// set to the out directory.
func runAll(args []string, seed int64, seconds float64, trace, procs int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	set := resultSet{
		Meta: meta{
			Seed: seed, Seconds: seconds, Trace: trace, NProc: runtime.NumCPU(),
			Procs: procs, Go: runtime.Version(), Commit: commit(),
			When: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: make(map[string]result),
	}
	code := 0
	for _, w := range workloads {
		fmt.Fprintf(stdout, "== %s: %s\n", w.name, w.why)
		var buf bytes.Buffer
		cmd := exec.Command(exe, append(append([]string(nil), args...), "--workload", w.name)...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			fmt.Fprintf(stderr, "bench: %s printed no result: %v\n", w.name, runErr)
			code = 1
			continue
		}
		set.Workloads[w.name] = res
		if runErr != nil || !res.Correct {
			code = 1
		}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	path := filepath.Join(out, fmt.Sprintf("results-%s.json", time.Now().UTC().Format("20060102T150405")))
	data, err := json.MarshalIndent(set, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "result set written to %s\n", path)
	return code
}
