package nn_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgellm/internal/nn"
	"edgellm/internal/serve"
	"edgellm/internal/tensor"
)

// poisoned is a packed weight whose kernel calls panic while armed. At two
// or more lanes the first caller waits until a second call is inside, so the
// panic surely comes from two lanes at once, a helper among them.
type poisoned struct {
	tensor.PackedMat
	armed  atomic.Bool
	in     atomic.Int32
	paired atomic.Bool
	lanes  int
}

func (p *poisoned) strike() {
	if !p.armed.Load() {
		return
	}
	if p.in.Add(1) == 1 && p.lanes > 1 {
		for deadline := time.Now().Add(10 * time.Second); p.in.Load() < 2 && time.Now().Before(deadline); {
		}
	}
	if p.in.Load() >= 2 {
		p.paired.Store(true)
	}
	panic("poisoned packed weight")
}

func (p *poisoned) DecodeRowsInto(dst []float32, rowLo, rowHi, colLo, colHi int) {
	p.strike()
	p.PackedMat.DecodeRowsInto(dst, rowLo, rowHi, colLo, colHi)
}

func (p *poisoned) MulVecInto(out []float32, outStride int, a []float32, rows, colLo, colHi int) bool {
	p.strike()
	return p.PackedMat.MulVecInto(out, outStride, a, rows, colLo, colHi)
}

// TestSchedulerContainsLanePanic makes a kernel call panic on a helper lane
// mid-step, under the serve scheduler, at 1 to 4 lanes: the step's stream
// fails with the scheduler's typed step error, its slot is reclaimed, the
// decoder's next steps give the bits of a fresh decoder, and a
// request after the panic decodes as a solo decode does.
func TestSchedulerContainsLanePanic(t *testing.T) {
	cfg := nn.Config{Vocab: 64, Dim: 128, Heads: 4, Layers: 2, Hidden: 256, MaxSeq: 32}
	nn.EachLaneCount(t, func(t *testing.T, lanes int) {
		m := nn.NewModel(cfg, tensor.NewRNG(11))
		specs := []nn.PackSpec{{Bits: 4}, {Bits: 4}}
		pm, err := nn.PackModel(m, specs, tensor.NewPool())
		if err != nil {
			t.Fatal(err)
		}
		var poison *poisoned
		nn.WrapPacked(pm, 1, 0, func(p tensor.PackedMat) tensor.PackedMat {
			poison = &poisoned{PackedMat: p, lanes: lanes}
			return poison
		})
		dec := nn.NewBatchDecoder(m, 2, nil)
		defer dec.Close()
		if err := dec.SetPacked(pm); err != nil {
			t.Fatal(err)
		}
		sched := serve.New(dec)
		ctx, cancel := context.WithCancel(context.Background())
		served := make(chan error, 1)
		go func() { served <- sched.Serve(ctx) }()
		var once sync.Once
		stop := func() { once.Do(func() { cancel(); <-served }) }
		defer stop()

		poison.armed.Store(true)
		st, err := sched.Submit(serve.Request{ID: "poisoned", Prompt: []int{1, 2, 3}, Cfg: nn.SampleConfig{MaxTokens: 4}})
		if err != nil {
			t.Fatal(err)
		}
		<-st.Done()
		if err := st.Result().Err; err == nil || !strings.Contains(err.Error(), "decoder step panicked: poisoned packed weight") {
			t.Fatalf("stream error = %v, want the contained step panic", err)
		}
		if lanes > 1 && !poison.paired.Load() {
			t.Fatal("the poisoned call never ran on two lanes at once")
		}
		poison.armed.Store(false)

		prompt := []int{4, 5, 6, 7}
		after, err := sched.Submit(serve.Request{ID: "after", Prompt: prompt, Cfg: nn.SampleConfig{MaxTokens: 6}})
		if err != nil {
			t.Fatal(err)
		}
		<-after.Done()
		if err := after.Result().Err; err != nil {
			t.Fatalf("request after the panic: %v", err)
		}
		want := soloDecode(t, m, pm, prompt, 6)
		if got := after.Result().Tokens; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("request after the panic decoded %v, solo decode %v", got, want)
		}
		stop()
		if dec.ArenaActiveBytes() != 0 {
			t.Fatalf("arena holds %d bytes after the contained panic", dec.ArenaActiveBytes())
		}

		// The decoder whose helper panicked steps on, bit for bit a fresh
		// decoder.
		slot, err := dec.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		ref := soloDecoder(t, m, pm)
		rs, err := ref.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		for i, tok := range prompt {
			got, err := dec.StepBatch([]int{tok}, []int{slot})
			if err != nil {
				t.Fatal(err)
			}
			wantRow, err := ref.StepBatch([]int{tok}, []int{rs})
			if err != nil {
				t.Fatal(err)
			}
			for j := range got[0] {
				if math.Float32bits(got[0][j]) != math.Float32bits(wantRow[0][j]) {
					t.Fatalf("step %d logit %d: %v, fresh decoder %v", i, j, got[0][j], wantRow[0][j])
				}
			}
		}
		dec.Release(slot)
	})
}

// soloDecoder is a fresh one-slot decoder over m and pm.
func soloDecoder(t *testing.T, m *nn.Model, pm *nn.PackedModel) *nn.Decoder {
	t.Helper()
	d := nn.NewDecoder(m)
	t.Cleanup(d.Close)
	if err := d.SetPacked(pm); err != nil {
		t.Fatal(err)
	}
	return d
}

// soloDecode greedily decodes n tokens after prompt on a fresh decoder.
func soloDecode(t *testing.T, m *nn.Model, pm *nn.PackedModel, prompt []int, n int) []int {
	t.Helper()
	out, err := soloDecoder(t, m, pm).Generate(prompt, nn.SampleConfig{MaxTokens: n})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
