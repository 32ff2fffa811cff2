package nn

import "edgellm/internal/tensor"

// EachLaneCount is eachLaneCount for the external test package.
var EachLaneCount = eachLaneCount

// WrapPacked replaces pm's packed weight wi of layer l by wrap of it, for a
// test that needs one kernel call of a step to misbehave.
func WrapPacked(pm *PackedModel, l, wi int, wrap func(tensor.PackedMat) tensor.PackedMat) {
	pm.mats[l][wi] = wrap(pm.mats[l][wi])
}
