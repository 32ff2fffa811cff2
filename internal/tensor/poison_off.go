//go:build !poison

package tensor

// poison is off in every ordinary build: Pool.GetUncleared hands buffers
// out as they are.
const poison = false
