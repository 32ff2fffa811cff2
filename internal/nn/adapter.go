package nn

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"edgellm/internal/artifact"
	"edgellm/internal/tensor"
)

// An adapter is an artifact (DESIGN.md, "Artifacts") of kind "ELLMADP1": a
// JSON header {name, alpha, rank, targets[]} and then, per target, the A and
// the B tensor (tensor.WriteTo framing).
var adapterMagic = artifact.Magic{'E', 'L', 'L', 'M', 'A', 'D', 'P', '1'}

// adapterHeader is the JSON header preceding the low-rank tensor payload.
type adapterHeader struct {
	Name    string   `json:"name"`
	Alpha   float32  `json:"alpha"`
	Rank    int      `json:"rank"`
	Targets []string `json:"targets"`
}

// AdapterPair is one low-rank factor pair targeting a named model linear.
// Target names follow the adapt.LoRASet convention —
// "block<N>.{wq,wk,wv,wo,gate,up,down}" — plus "lmhead" and "exit<N>" for
// per-tenant output (exit) heads; an exit pair is checked against its head
// but decodes nothing, the decoder runs only the LM head. A has shape
// (in, rank), B (rank, out).
type AdapterPair struct {
	Target string
	A, B   *tensor.Tensor
}

// Adapter is an inference-time set of low-rank factor pairs, one per target
// linear. A decoder it is set on (Decoder.SetAdapter) computes
// y = x·W + (alpha/rank)·(x·A)·B for every target — the arithmetic of the
// training-time hook (adapt.LoRASet) — and never touches W. Adapters are
// immutable after construction and safe to share across decoders; the
// scheduler groups streams by adapter pointer identity.
type Adapter struct {
	name  string
	alpha float32
	rank  int
	pairs []AdapterPair
}

// NewAdapter builds an adapter from low-rank pairs. Every A must be
// (in, rank) and B (rank, out) with one consistent rank; target names must
// be non-empty and unique.
func NewAdapter(name string, alpha float32, pairs []AdapterPair) (*Adapter, error) {
	if name == "" {
		return nil, fmt.Errorf("nn: adapter needs a name")
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("nn: adapter %s has no target pairs", name)
	}
	rank := 0
	seen := make(map[string]bool, len(pairs))
	for _, p := range pairs {
		if p.Target == "" {
			return nil, fmt.Errorf("nn: adapter %s has a pair with an empty target", name)
		}
		if seen[p.Target] {
			return nil, fmt.Errorf("nn: adapter %s targets %s twice", name, p.Target)
		}
		seen[p.Target] = true
		if p.A == nil || p.B == nil || p.A.Rank() != 2 || p.B.Rank() != 2 {
			return nil, fmt.Errorf("nn: adapter %s target %s: A and B must be rank-2 tensors", name, p.Target)
		}
		r := p.A.Cols()
		if r < 1 || p.B.Rows() != r {
			return nil, fmt.Errorf("nn: adapter %s target %s: A is (%d,%d) but B is (%d,%d)",
				name, p.Target, p.A.Rows(), p.A.Cols(), p.B.Rows(), p.B.Cols())
		}
		if rank == 0 {
			rank = r
		} else if r != rank {
			return nil, fmt.Errorf("nn: adapter %s target %s: rank %d differs from %d", name, p.Target, r, rank)
		}
	}
	return &Adapter{name: name, alpha: alpha, rank: rank, pairs: pairs}, nil
}

// Name returns the adapter's name.
func (a *Adapter) Name() string { return a.name }

// Rank returns the low-rank dimension.
func (a *Adapter) Rank() int { return a.rank }

// Alpha returns the LoRA scaling numerator (scale = Alpha/Rank).
func (a *Adapter) Alpha() float32 { return a.alpha }

// Targets returns the targeted linear names in application order.
func (a *Adapter) Targets() []string {
	out := make([]string, len(a.pairs))
	for i, p := range a.pairs {
		out[i] = p.Target
	}
	return out
}

// Save serialises the adapter as an adapter artifact.
func (a *Adapter) Save(w io.Writer) error {
	aw := artifact.NewWriter(w, adapterMagic)
	hdr := adapterHeader{Name: a.name, Alpha: a.alpha, Rank: a.rank, Targets: a.Targets()}
	if err := aw.Header(hdr); err != nil {
		return fmt.Errorf("nn: write adapter header: %w", err)
	}
	for _, p := range a.pairs {
		if _, err := p.A.WriteTo(aw); err != nil {
			return fmt.Errorf("nn: write %s.lora_a: %w", p.Target, err)
		}
		if _, err := p.B.WriteTo(aw); err != nil {
			return fmt.Errorf("nn: write %s.lora_b: %w", p.Target, err)
		}
	}
	if err := aw.Close(); err != nil {
		return fmt.Errorf("nn: write adapter footer: %w", err)
	}
	return nil
}

// SaveFile writes the adapter artifact atomically, so a crashed save never
// leaves a torn artifact in the registry directory.
func (a *Adapter) SaveFile(path string) error {
	return artifact.WriteFile(path, a.Save)
}

// LoadAdapter reads an adapter artifact written by Save, verifying the
// checksum before anything is built from it. Truncated, bit-flipped, or
// malformed artifacts fail with a diagnostic error — never a panic — so a
// serving registry can map corruption to a clean client error.
func LoadAdapter(r io.Reader) (*Adapter, error) {
	ar, err := artifact.NewReader(r, adapterMagic)
	if err != nil {
		return nil, fmt.Errorf("nn: not an edgellm adapter artifact: %w", err)
	}
	var hdr adapterHeader
	if err := ar.Header(&hdr); err != nil {
		return nil, fmt.Errorf("nn: adapter: %w", err)
	}
	if len(hdr.Targets) == 0 || len(hdr.Targets) > 1<<12 {
		return nil, fmt.Errorf("nn: adapter %q has implausible target count %d", hdr.Name, len(hdr.Targets))
	}
	pairs := make([]AdapterPair, 0, len(hdr.Targets))
	for _, target := range hdr.Targets {
		A, err := tensor.ReadFrom(ar)
		if err != nil {
			return nil, fmt.Errorf("nn: read %s.lora_a: %w", target, err)
		}
		B, err := tensor.ReadFrom(ar)
		if err != nil {
			return nil, fmt.Errorf("nn: read %s.lora_b: %w", target, err)
		}
		pairs = append(pairs, AdapterPair{Target: target, A: A, B: B})
	}
	if err := ar.Verify(); err != nil {
		return nil, fmt.Errorf("nn: adapter %q: %w", hdr.Name, err)
	}
	a, err := NewAdapter(hdr.Name, hdr.Alpha, pairs)
	if err != nil {
		return nil, err
	}
	if a.rank != hdr.Rank {
		return nil, fmt.Errorf("nn: adapter %q header rank %d does not match tensors (rank %d)", hdr.Name, hdr.Rank, a.rank)
	}
	return a, nil
}

// LoadAdapterFile reads an adapter artifact from a file path.
func LoadAdapterFile(path string) (*Adapter, error) {
	return artifact.ReadFile(path, LoadAdapter)
}

// adapterSite resolves an adapter target name to the weight it adapts and
// that weight's place in the decode step: (layer, Block.WeightMatrices index)
// for "block<N>.{wq,wk,wv,wo,gate,up,down}", (len(m.Blocks), 0) for "lmhead",
// and layer -1 for "exit<N>" — an untied per-layer early-exit projection,
// which the decoder never runs. It reads shapes only, so it is safe while
// another goroutine decodes over m.
func (m *Model) adapterSite(target string) (w *tensor.Tensor, layer, wi int, err error) {
	if target == "lmhead" {
		return m.LMHead.W.Data, len(m.Blocks), 0, nil
	}
	if idx, ok := strings.CutPrefix(target, "exit"); ok && !strings.Contains(idx, ".") {
		n, err := strconv.Atoi(idx)
		if err != nil || n < 0 || n >= len(m.Exits) {
			return nil, 0, 0, fmt.Errorf("nn: adapter target %q: model has %d exit heads", target, len(m.Exits))
		}
		if m.Exits[n].Tied {
			return nil, 0, 0, fmt.Errorf("nn: adapter target %q: exit head %d is tied to lmhead; target lmhead instead", target, n)
		}
		return m.Exits[n].Proj.W.Data, -1, 0, nil
	}
	blockPart, linName, ok := strings.Cut(target, ".")
	if !ok || !strings.HasPrefix(blockPart, "block") {
		return nil, 0, 0, fmt.Errorf("nn: unknown adapter target %q", target)
	}
	n, err := strconv.Atoi(strings.TrimPrefix(blockPart, "block"))
	if err != nil || n < 0 || n >= len(m.Blocks) {
		return nil, 0, 0, fmt.Errorf("nn: adapter target %q: model has %d blocks", target, len(m.Blocks))
	}
	wi = slices.Index(blockWeightNames[:], linName)
	if wi < 0 {
		return nil, 0, 0, fmt.Errorf("nn: unknown adapter target %q", target)
	}
	return m.Blocks[n].WeightMatrices()[wi], n, wi, nil
}

// Adapter returns the adapter the decoder currently decodes under (nil on
// the base model).
func (d *Decoder) Adapter() *Adapter { return d.adapter }

// CheckAdapter reports whether a fits the decoder's model: every target
// names a linear the model has and the pair's (in, out) matches its shape,
// packed or not. It reads nothing that decoding writes, so — unlike
// SetAdapter — any goroutine may call it.
func (d *Decoder) CheckAdapter(a *Adapter) error {
	if a == nil {
		return nil
	}
	for _, p := range a.pairs {
		w, _, _, err := d.m.adapterSite(p.Target)
		if err != nil {
			return fmt.Errorf("nn: adapter %s: %w", a.name, err)
		}
		if p.A.Rows() != w.Shape[0] || p.B.Cols() != w.Shape[1] {
			return fmt.Errorf("nn: adapter %s target %s: factors give (%d,%d), weight is %v",
				a.name, p.Target, p.A.Rows(), p.B.Cols(), w.Shape)
		}
	}
	return nil
}

// SetAdapter makes a the adapter every following step decodes under;
// SetAdapter(nil) returns to the base model. It checks the fit
// (CheckAdapter), rebuilds the (layer, weight) → pair table the step reads
// and sizes the side path's scratch; it writes no model weight, so decoders
// sharing a model never see each other's adapters, and it composes with
// SetPacked in either order. A failed call changes nothing. Must be called
// from the goroutine driving the decoder, between steps.
func (d *Decoder) SetAdapter(a *Adapter) error {
	if a == d.adapter {
		return nil
	}
	if err := d.CheckAdapter(a); err != nil {
		return err
	}
	clear(d.side)
	d.adapter = a
	if a == nil {
		return nil
	}
	out := 0
	for i := range a.pairs {
		p := &a.pairs[i]
		if _, l, wi, _ := d.m.adapterSite(p.Target); l >= 0 {
			d.side[l][wi] = p
			out = max(out, p.B.Cols())
		}
	}
	d.sideXA.grow(d.pool, d.rowCap, a.rank)
	d.sideOut.grow(d.pool, d.rowCap, out)
	return nil
}

// addSide adds the adapter's term for layer l's weight wi (the LM head is
// row len(Blocks), column 0) to out = x·W, row by row:
// out += (alpha/rank)·((x·A)·B), two MatMulInto calls into decoder scratch,
// so a row's bits do not depend on which rows share the step.
func (d *Decoder) addSide(out, x *tensor.Tensor, l, wi int) {
	p := d.side[l][wi]
	if p == nil {
		return
	}
	xa := d.sideXA.shaped(x.Rows(), p.A.Cols())
	tensor.MatMulInto(xa, x, p.A)
	delta := d.sideOut.shaped(x.Rows(), p.B.Cols())
	tensor.MatMulInto(delta, xa, p.B)
	scale := d.adapter.alpha / float32(d.adapter.rank)
	for j, v := range delta.Data {
		out.Data[j] += float32(scale * v)
	}
}
