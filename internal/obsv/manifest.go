package obsv

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"time"
)

// Manifest identifies one run well enough to reproduce it: what was run,
// the root seed, a stable hash of the full configuration, the VCS
// revision, and the toolchain/host. It is emitted as the first JSONL line
// of a metrics stream.
type Manifest struct {
	Tool        string    `json:"tool"`
	Start       time.Time `json:"start"`
	Seed        int64     `json:"seed"`
	ConfigHash  string    `json:"config_hash"`
	GitRevision string    `json:"git_revision"`
	GitDirty    bool      `json:"git_dirty,omitempty"`
	GoVersion   string    `json:"go_version"`
	GOOS        string    `json:"goos"`
	GOARCH      string    `json:"goarch"`
	NumCPU      int       `json:"num_cpu"`
	Parallel    int       `json:"parallel,omitempty"`
	// Pool records whether the tensor arena was enabled ("on"/"off"),
	// empty for tools that predate or don't expose the knob.
	Pool string `json:"pool,omitempty"`
	// Kernel records the code path under the matmul kernels
	// (tensor.KernelPath: "avx2" or "go"), so a timing in the stream is
	// attributable to it. Set by the tool: tensor imports this package.
	Kernel string `json:"kernel,omitempty"`
	// Govern records whether the resource governor was active
	// ("on"/"off"), empty for runs that predate the knob.
	Govern string `json:"govern,omitempty"`
	// MemBudgetBytes is the governor's hard memory budget (0 = none).
	MemBudgetBytes int64 `json:"mem_budget_bytes,omitempty"`
	// StageTimeoutMS is the governor's per-stage deadline (0 = none).
	StageTimeoutMS float64 `json:"stage_timeout_ms,omitempty"`
}

// NewManifest builds a manifest for a run of `tool` with the given root
// seed and configuration value. The config hash is an FNV-64a over the
// config's canonical JSON encoding, so any knob change produces a new
// hash while formatting-irrelevant changes do not.
func NewManifest(tool string, seed int64, config any) Manifest {
	m := Manifest{
		Tool:       tool,
		Start:      time.Now().UTC(),
		Seed:       seed,
		ConfigHash: HashConfig(config),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
	}
	m.GitRevision, m.GitDirty = gitRevision()
	return m
}

// HashConfig returns a short stable hash of any JSON-encodable config
// value (encoding/json sorts map keys, so the encoding is canonical for
// the struct-and-map configs used here).
func HashConfig(config any) string {
	b, err := json.Marshal(config)
	if err != nil {
		return "unhashable"
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// gitRevision reads the VCS revision stamped into the binary by the Go
// toolchain. Test binaries and `go run` builds without VCS stamping
// report "unknown".
func gitRevision() (rev string, dirty bool) {
	rev = "unknown"
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return rev, false
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	return rev, dirty
}
