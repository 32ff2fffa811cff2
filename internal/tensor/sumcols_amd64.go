package tensor

// useAVX2 is read once at init; there is no switch to turn it off.
var useAVX2 = cpuHasAVX2()

// useExp gates the vector exp: AVX2 and FMA, and math.Exp on its FMA path in
// this process (expMatchesMath), which GODEBUG=cpu.fma=off or cpu.avx=off
// turns off although the CPU has both.
var useExp = useAVX2 && cpuHasFMA() && expMatchesMath()

func cpuHasAVX2() bool

func cpuHasFMA() bool

func cpuHasAVX512F() bool

//go:noescape
func sumTileAVX512(out *float32, outStride, n int, a *float32, aRow, aStride int, b *float32, bStride, k int)

//go:noescape
func sumPairAVX512(out *float32, outStride, n int, a *float32, aRow, aStride int, b *float32, bStride, k int)

//go:noescape
func sumColsAVX2(out *float32, n int, a *float32, aStride int, b *float32, bStride int, k int)

//go:noescape
func adamWAVX2(w, grad, m, v *float32, n int, c AdamWStep)

//go:noescape
func addAVX2(dst, src *float32, n int)

//go:noescape
func transpose8AVX2(dst *float32, ld int, src *float32, ls int, blocks int)

//go:noescape
func mulAVX2(dst, a, b *float32, n int)

//go:noescape
func scaleAVX2(dst *float32, n int, s float32)

//go:noescape
func expAVX2(dst, x *float64, n int) int

//go:noescape
func sigmoidAVX2(dst, x, y *float32, n, op int) int

//go:noescape
func expShiftAVX2(dst, x *float32, n int, m float32, sum float64) (done int, total float64)
