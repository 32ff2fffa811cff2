package tensor

// EachTileMode is eachTileMode for the external test package.
var EachTileMode = eachTileMode

// CheckLaneSplit is checkLaneSplit for the external test package.
var CheckLaneSplit = checkLaneSplit

// SumTile is sumTileAVX512 over slices, for the external guard-page test:
// four rows of out, n columns (a positive multiple of 32), strides in
// elements. It runs only where HasAVX512 is true and checks no bounds.
// sumColsRows hands the kernel at most blockSize columns a call, so only
// through here does one call run a 64-column pass and then a 32-column one.
func SumTile(out []float32, outStride, n int, a []float32, aRow, aStride int, b []float32, bStride, k int) {
	sumTileAVX512(&out[0], outStride*4, n, &a[0], aRow*4, aStride*4, &b[0], bStride*4, k)
}
