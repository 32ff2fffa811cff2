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
// linear. A decoder slot it is bound to (Decoder.SetAdapterAt, or every slot
// through Decoder.SetAdapter) computes y = x·W + (alpha/rank)·(x·A)·B for
// every target — the arithmetic of the training-time hook (adapt.LoRASet) —
// and never touches W. Adapters are immutable after construction and safe to
// share across decoders and slots.
type Adapter struct {
	name  string
	alpha float32
	rank  int
	pairs []AdapterPair
	// sites maps siteKey(layer, weight) to the pair the decode step adds
	// there, resolved from the target names once, at construction; out is
	// the widest such pair's output width.
	sites map[int]*AdapterPair
	out   int
}

// siteKey names a weight of the decode step: layer l's weight wi
// (Block.WeightMatrices order), or the LM head at layer headLayer.
func siteKey(l, wi int) int { return l*numBlockWeights + wi }

// headLayer and exitLayer are parseTarget's layers for "lmhead" and
// "exit<N>".
const headLayer, exitLayer = -1, -2

// NewAdapter builds an adapter from low-rank pairs. Every A must be
// (in, rank) and B (rank, out) with one consistent rank; target names must
// be non-empty and unique. Whether a target exists is a question about a
// model, which CheckAdapter answers.
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
	a := &Adapter{name: name, alpha: alpha, rank: rank, pairs: pairs, sites: make(map[int]*AdapterPair, len(pairs))}
	for i := range pairs {
		p := &pairs[i]
		// Exit heads decode nothing; a name no model has never reaches a
		// step, since binding checks the fit.
		if l, wi, ok := parseTarget(p.Target); ok && l != exitLayer {
			a.sites[siteKey(l, wi)] = p
			a.out = max(a.out, p.B.Cols())
		}
	}
	return a, nil
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

// parseTarget resolves an adapter target name to its place in the decode
// step, reading no model: (N, Block.WeightMatrices index) for
// "block<N>.{wq,wk,wv,wo,gate,up,down}", (headLayer, 0) for "lmhead" and
// (exitLayer, N) for "exit<N>". ok is false for any other name.
func parseTarget(target string) (layer, idx int, ok bool) {
	if target == "lmhead" {
		return headLayer, 0, true
	}
	if n, isExit := strings.CutPrefix(target, "exit"); isExit && !strings.Contains(n, ".") {
		i, err := strconv.Atoi(n)
		return exitLayer, i, err == nil && i >= 0
	}
	blockPart, linName, found := strings.Cut(target, ".")
	n, isBlock := strings.CutPrefix(blockPart, "block")
	if !found || !isBlock {
		return 0, 0, false
	}
	l, err := strconv.Atoi(n)
	wi := slices.Index(blockWeightNames[:], linName)
	return l, wi, err == nil && l >= 0 && wi >= 0
}

// adapterSite resolves an adapter target name to the weight it adapts and
// that weight's place in the decode step: (layer, Block.WeightMatrices index)
// for "block<N>.{wq,wk,wv,wo,gate,up,down}", (len(m.Blocks), 0) for "lmhead",
// and layer -1 for "exit<N>" — an untied per-layer early-exit projection,
// which the decoder never runs. It reads shapes only, so it is safe while
// another goroutine decodes over m.
func (m *Model) adapterSite(target string) (w *tensor.Tensor, layer, wi int, err error) {
	layer, wi, ok := parseTarget(target)
	switch {
	case !ok:
		return nil, 0, 0, fmt.Errorf("nn: unknown adapter target %q", target)
	case layer == headLayer:
		return m.LMHead.W.Data, len(m.Blocks), 0, nil
	case layer == exitLayer:
		if wi >= len(m.Exits) {
			return nil, 0, 0, fmt.Errorf("nn: adapter target %q: model has %d exit heads", target, len(m.Exits))
		}
		if m.Exits[wi].Tied {
			return nil, 0, 0, fmt.Errorf("nn: adapter target %q: exit head %d is tied to lmhead; target lmhead instead", target, wi)
		}
		return m.Exits[wi].Proj.W.Data, -1, 0, nil
	case layer >= len(m.Blocks):
		return nil, 0, 0, fmt.Errorf("nn: adapter target %q: model has %d blocks", target, len(m.Blocks))
	}
	return m.Blocks[layer].WeightMatrices()[wi], layer, wi, nil
}

// AdapterAt returns the adapter slot decodes under (nil on the base model).
func (d *Decoder) AdapterAt(slot int) *Adapter { return d.slotAdapter[slot] }

// CheckAdapter reports whether a fits the decoder's model: every target
// names a linear the model has and the pair's (in, out) matches its shape,
// packed or not. It reads nothing that decoding writes, so — unlike
// SetAdapter and SetAdapterAt — any goroutine may call it.
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

// SetAdapter binds a to every slot (SetAdapterAt on each); SetAdapter(nil)
// returns them all to the base model. A failed call changes nothing.
func (d *Decoder) SetAdapter(a *Adapter) error {
	if err := d.bindScratch(a); err != nil {
		return err
	}
	for s := range d.slotAdapter {
		d.slotAdapter[s] = a
	}
	return nil
}

// SetAdapterAt makes a the adapter slot decodes under from its next step
// on; nil returns it to the base model. The binding outlives Release, so
// whoever acquires the slot binds it before stepping it. It checks the fit
// (CheckAdapter) and sizes the side path's scratch; it writes no model
// weight, so decoders sharing a model never see each other's adapters, and
// it composes with SetPacked in either order. A failed call changes
// nothing. Must be called from the goroutine driving the decoder, between
// steps.
func (d *Decoder) SetAdapterAt(slot int, a *Adapter) error {
	if slot < 0 || slot >= d.cap {
		return fmt.Errorf("nn: slot %d out of range [0,%d)", slot, d.cap)
	}
	if err := d.bindScratch(a); err != nil {
		return err
	}
	d.slotAdapter[slot] = a
	return nil
}

// bindScratch checks that a fits and grows the side path's scratch to hold
// its widest target over a full step's rows, for each projection of a phase.
func (d *Decoder) bindScratch(a *Adapter) error {
	if a == nil {
		return nil
	}
	if err := d.CheckAdapter(a); err != nil {
		return err
	}
	d.sideXA.grow(d.pool, len(d.terms)*d.rowCap, a.rank)
	d.sideOut.grow(d.pool, len(d.terms)*d.rowCap, a.out)
	return nil
}

// sideRun is a stretch [lo, hi) of a step's rows whose slots are bound to
// one adapter.
type sideRun struct {
	lo, hi int
	a      *Adapter
}

// extendSide adds row i, decoded under a, to runs: it grows the last stretch
// when that is a's and ends at i, and starts a new one otherwise. Rows on
// the base model join no stretch.
func extendSide(runs []sideRun, i int, a *Adapter) []sideRun {
	if a == nil {
		return runs
	}
	if n := len(runs); n > 0 && runs[n-1].a == a && runs[n-1].hi == i {
		runs[n-1].hi++
		return runs
	}
	return append(runs, sideRun{lo: i, hi: i + 1, a: a})
}

// sideTerm is one stretch's adapter term for a projection of a phase:
// out += scale·((x·A)·B) over rows [lo, hi). xa holds x·A, computed before
// the phase; each unit writes (x·A)·B over its columns into delta and adds
// them, scaled, into out (phase.product). Both are views of the decoder's
// side scratch.
type sideTerm struct {
	xa, delta tensor.Tensor
	b         *tensor.Tensor
	scale     float32
	lo, hi    int
}

// newSideTerms returns a decoder's side term table: for each of a phase's
// projections, room for one term a row, their view headers made once.
func newSideTerms(rows int) (terms [3][]sideTerm) {
	shapes := make([]int, len(terms)*rows*4)
	for i := range terms {
		terms[i] = make([]sideTerm, rows)
		for k := range terms[i] {
			sh := shapes[(i*rows+k)*4:]
			terms[i][k].xa.Shape, terms[i][k].delta.Shape = sh[0:2:2], sh[2:4:4]
		}
	}
	return terms
}

// sideTerms fills projection i's side terms for layer l's weight wi (the LM
// head is layer headLayer), whose output is width wide, from the stretches
// of runs over x's rows: for each stretch whose adapter targets the weight,
// its x·A through MatMulInto, whose per-row sums do not depend on how many
// rows share the call, so a row's bits do not depend on which rows, or which
// adapters, share the step.
func (d *Decoder) sideTerms(i int, x *tensor.Tensor, runs []sideRun, l, wi, width int) []sideTerm {
	in, terms := x.Cols(), d.terms[i][:0]
	for _, r := range runs {
		p := r.a.sites[siteKey(l, wi)]
		if p == nil {
			continue
		}
		// Row j of projection i's scratch starts (i·rowCap + j) strides
		// in, a stride the widest rank or target bound so far, so that
		// stretches of adapters of different ranks never share a float.
		rows := len(d.terms) * d.rowCap
		xaStride, outStride := len(d.sideXA.back.Data)/rows, len(d.sideOut.back.Data)/rows
		n := r.hi - r.lo
		terms = terms[:len(terms)+1]
		s := &terms[len(terms)-1]
		base := i*d.rowCap + r.lo
		s.xa.Data = d.sideXA.back.Data[base*xaStride:][:n*r.a.rank]
		s.xa.Shape[0], s.xa.Shape[1] = n, r.a.rank
		s.delta.Data = d.sideOut.back.Data[base*outStride:][:n*width]
		s.delta.Shape[0], s.delta.Shape[1] = n, width
		s.b, s.scale, s.lo, s.hi = p.B, r.a.alpha/float32(r.a.rank), r.lo, r.hi
		d.sideX.Data = x.Data[r.lo*in : r.hi*in]
		d.sideX.Shape[0], d.sideX.Shape[1] = n, in
		tensor.MatMulInto(&s.xa, &d.sideX, p.A)
	}
	return terms
}
