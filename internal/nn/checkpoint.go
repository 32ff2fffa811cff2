package nn

import (
	"fmt"
	"io"

	"edgellm/internal/artifact"
	"edgellm/internal/tensor"
)

// A model checkpoint is an artifact (DESIGN.md, "Artifacts") of kind
// "ELLMCKP2": a JSON header {config, names} and then every named parameter
// in header order, tensor.WriteTo framing. The footerless "ELLMCKP1" form is
// rejected, so every checkpoint that loads has passed its checksum.
var checkpointMagic = artifact.Magic{'E', 'L', 'L', 'M', 'C', 'K', 'P', '2'}

// checkpointHeader is the JSON header preceding the tensor payload.
type checkpointHeader struct {
	Config Config   `json:"config"`
	Names  []string `json:"names"`
}

// Save serialises the model (config + every named parameter) to w.
func (m *Model) Save(w io.Writer) error {
	params := m.Params()
	hdr := checkpointHeader{Config: m.Cfg}
	for _, p := range params {
		hdr.Names = append(hdr.Names, p.Name)
	}
	aw := artifact.NewWriter(w, checkpointMagic)
	if err := aw.Header(hdr); err != nil {
		return fmt.Errorf("nn: write checkpoint header: %w", err)
	}
	for _, p := range params {
		if _, err := p.Value.Data.WriteTo(aw); err != nil {
			return fmt.Errorf("nn: write %s: %w", p.Name, err)
		}
	}
	if err := aw.Close(); err != nil {
		return fmt.Errorf("nn: write checkpoint footer: %w", err)
	}
	return nil
}

// Load reads a checkpoint written by Save, rebuilding the model from the
// stored config and filling in every parameter. Every tensor is read before
// the model is built, and the model is built only when their element total
// is the config's parameter count: each read is bounded by the bytes
// present, so a header that declares a model larger than its file costs no
// more than the file. Name order and shapes are verified against the built
// architecture, and the checksum is verified before the model is returned,
// so a truncated or bit-flipped file can never load successfully.
func Load(r io.Reader) (*Model, error) {
	ar, err := artifact.NewReader(r, checkpointMagic)
	if err != nil {
		return nil, fmt.Errorf("nn: not an edgellm checkpoint: %w", err)
	}
	var hdr checkpointHeader
	if err := ar.Header(&hdr); err != nil {
		return nil, fmt.Errorf("nn: checkpoint: %w", err)
	}
	if err := hdr.Config.Validate(); err != nil {
		return nil, fmt.Errorf("nn: checkpoint config invalid: %w", err)
	}
	stored := make([]*tensor.Tensor, len(hdr.Names))
	var elems int64
	for i, name := range hdr.Names {
		if stored[i], err = tensor.ReadFrom(ar); err != nil {
			return nil, fmt.Errorf("nn: read %s: %w", name, err)
		}
		elems += int64(stored[i].Len())
	}
	if want := paramElems(hdr.Config); float64(elems) != want {
		return nil, fmt.Errorf("nn: checkpoint holds %d parameters, its config declares %.0f", elems, want)
	}
	m := NewModel(hdr.Config, tensor.NewRNG(0))
	params := m.Params()
	if len(params) != len(hdr.Names) {
		return nil, fmt.Errorf("nn: checkpoint has %d tensors, architecture expects %d",
			len(hdr.Names), len(params))
	}
	for i, p := range params {
		if p.Name != hdr.Names[i] {
			return nil, fmt.Errorf("nn: checkpoint tensor %d is %q, expected %q",
				i, hdr.Names[i], p.Name)
		}
		t := stored[i]
		if !t.SameShape(p.Value.Data) {
			return nil, fmt.Errorf("nn: %s has shape %v, expected %v",
				p.Name, t.Shape, p.Value.Data.Shape)
		}
		p.Value.Data.CopyFrom(t)
	}
	if err := ar.Verify(); err != nil {
		return nil, fmt.Errorf("nn: checkpoint: %w", err)
	}
	return m, nil
}

// paramElems is the parameter count of the model NewModel builds from c,
// the sum train.ModelParamElems states, in float64 so that no header's
// dimensions can wrap it into agreement with a file: every term is a whole
// number, so the sum is exact below 2^53 and at least 2^53 above it.
func paramElems(c Config) float64 {
	d, v, l := float64(c.Dim), float64(c.Vocab), float64(c.Layers)
	head := d * (1 + v) // a norm gain and a vocab projection
	n := (v+float64(c.MaxSeq))*d + head + l*(4*d*d+3*d*float64(c.Hidden)+2*d)
	switch {
	case c.ExitHeads && c.TieExitHeads:
		n += l * d
	case c.ExitHeads:
		n += l * head
	}
	return n
}

// SaveFile writes the model checkpoint to a file path atomically: an
// interrupted save never clobbers an existing good checkpoint with a partial
// one.
func (m *Model) SaveFile(path string) error {
	return artifact.WriteFile(path, m.Save)
}

// LoadFile reads a model checkpoint from a file path.
func LoadFile(path string) (*Model, error) {
	return artifact.ReadFile(path, Load)
}
