//go:build poison

package tensor

// poison makes Pool.GetUncleared fill each buffer with NaN before handing
// it out (go test -tags poison), so any reader of an uncleared buffer's old
// contents turns a result into NaN.
const poison = true
