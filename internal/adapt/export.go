package adapt

import (
	"fmt"
	"strings"

	"edgellm/internal/nn"
)

// Export snapshots the LoRA set's trained factors as a named serving
// artifact: an nn.Adapter, which a decoder applies as the same side path
// y + (alpha/rank)·(x·A)·B the training-time Adapter hook computes.
// The tensors are cloned, so the artifact is immutable even if training
// continues. Save it with Adapter.SaveFile for the serve registry to load.
func (s *LoRASet) Export(name string) (*nn.Adapter, error) {
	if len(s.params) == 0 {
		return nil, fmt.Errorf("adapt: LoRA set is empty (removed or never installed)")
	}
	if len(s.params)%2 != 0 {
		return nil, fmt.Errorf("adapt: LoRA set has %d parameters, expected a/b pairs", len(s.params))
	}
	pairs := make([]nn.AdapterPair, 0, len(s.params)/2)
	for i := 0; i < len(s.params); i += 2 {
		a, b := s.params[i], s.params[i+1]
		target, ok := strings.CutSuffix(a.Name, ".lora_a")
		if !ok || b.Name != target+".lora_b" {
			return nil, fmt.Errorf("adapt: unexpected LoRA parameter pair %q/%q", a.Name, b.Name)
		}
		pairs = append(pairs, nn.AdapterPair{
			Target: target,
			A:      a.Value.Data.Clone(),
			B:      b.Value.Data.Clone(),
		})
	}
	return nn.NewAdapter(name, s.Alpha, pairs)
}
