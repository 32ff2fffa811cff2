package nn

import (
	"fmt"
	"io"

	"edgellm/internal/artifact"
	"edgellm/internal/tensor"
)

// A model checkpoint is an artifact (DESIGN.md, "Artifacts") of kind
// "ELLMCKP2": a JSON header {config, names} and then every named parameter
// in header order, tensor.WriteTo framing. "ELLMCKP1", the same body written
// before the footer existed, still loads, unverified.
var (
	checkpointMagicV2 = artifact.Magic{'E', 'L', 'L', 'M', 'C', 'K', 'P', '2'}
	checkpointMagicV1 = artifact.Magic{'E', 'L', 'L', 'M', 'C', 'K', 'P', '1'}
)

// checkpointHeader is the JSON header preceding the tensor payload.
type checkpointHeader struct {
	Config Config   `json:"config"`
	Names  []string `json:"names"`
}

// Save serialises the model (config + every named parameter) to w as a v2
// checkpoint.
func (m *Model) Save(w io.Writer) error {
	params := m.Params()
	hdr := checkpointHeader{Config: m.Cfg}
	for _, p := range params {
		hdr.Names = append(hdr.Names, p.Name)
	}
	aw := artifact.NewWriter(w, checkpointMagicV2)
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
// stored config and filling in every parameter. Name order and shapes are
// verified against the freshly built architecture, and a v2 checkpoint's
// checksum is verified before the model is returned, so a truncated or
// bit-flipped file can never load successfully.
func Load(r io.Reader) (*Model, error) {
	ar, err := artifact.NewReader(r, checkpointMagicV2, checkpointMagicV1)
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
		t, err := tensor.ReadFrom(ar)
		if err != nil {
			return nil, fmt.Errorf("nn: read %s: %w", p.Name, err)
		}
		if !t.SameShape(p.Value.Data) {
			return nil, fmt.Errorf("nn: %s has shape %v, expected %v",
				p.Name, t.Shape, p.Value.Data.Shape)
		}
		p.Value.Data.CopyFrom(t)
	}
	if ar.Magic() == checkpointMagicV1 {
		return m, nil
	}
	if err := ar.Verify(); err != nil {
		return nil, fmt.Errorf("nn: checkpoint: %w", err)
	}
	return m, nil
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
