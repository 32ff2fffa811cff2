package tensor

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// expSpecials are the inputs at the vector exp's edges: both zeros; ±708
// (the largest |x| it takes) and the float32s beside it; ±709 and 709.78
// (where math.Exp overflows); ±745 (where it underflows to 0); ±87 and ±104
// (where float32(e) overflows or flushes); the smallest and largest
// subnormals; ±MaxFloat32; both infinities; quiet and signalling NaNs with
// payloads.
var expSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	708, -708, math.Nextafter32(708, 1000), math.Nextafter32(-708, -1000), math.Nextafter32(708, 0), math.Nextafter32(-708, 0),
	709, -709, 709.78, 745, -745, 88.8, -87.4, 104, -104,
	math.Float32frombits(1), -math.Float32frombits(1), math.Float32frombits(0x007fffff), -math.Float32frombits(0x007fffff),
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00001), math.Float32frombits(0x7f800001), math.Float32frombits(0xff812345),
}

// same32 and same64 compare bit for bit, except that any NaN equals any NaN
// (see sameFloats).
func same32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}
func same64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// outsideEXP4 reports whether a group of float64s holds a lane the vector exp
// turns away: |x| > 708 or NaN.
func outsideEXP4(x []float64) bool {
	for _, v := range x {
		if !(math.Abs(v) <= 708) {
			return true
		}
	}
	return false
}

// expCheck holds one chunk of inputs to the references: the vector exp itself
// against math.Exp in float64 (where this process has it) and SiLU against
// sigmoidGo; with all, also SiLUMul, SiLUGrad and ExpShift against sigmoidGo
// and expShiftGo, y the chunk reversed and m 0 and the chunk's first element.
// It returns a description of the first mismatch, or "".
func expCheck(v []float32, all bool) string {
	n := len(v)
	x, e := make([]float64, n), make([]float64, n)
	for i, f := range v {
		x[i] = float64(f)
	}
	if n4 := n &^ 3; useExp {
		for i := 0; i < n4; {
			done := expAVX2(&e[i], &x[i], n4-i)
			for j := i; j < i+done; j++ {
				if w := math.Exp(x[j]); !same64(e[j], w) {
					return fmt.Sprintf("exp(%v) = %x, math.Exp %x", v[j], math.Float64bits(e[j]), math.Float64bits(w))
				}
			}
			if i += done; i < n4 {
				if !outsideEXP4(x[i : i+4]) {
					return fmt.Sprintf("exp turned away %v, all inside ±708", v[i:i+4])
				}
				i += 4
			}
		}
	}
	y := make([]float32, n)
	for i := range y {
		y[i] = v[n-1-i]
	}
	got, want := make([]float32, n), make([]float32, n)
	ops := []string{"SiLU", "SiLUMul", "SiLUGrad"}
	if !all {
		ops = ops[:1]
	}
	for op, name := range ops {
		sigmoidOp(name, got, v, y, op)
		sigmoidGo(want, v, y, op)
		for i := range got {
			if !same32(got[i], want[i]) {
				return fmt.Sprintf("%s(%v, %v) = %v, Go %v", name, v[i], y[i], got[i], want[i])
			}
		}
	}
	if !all {
		return ""
	}
	for _, m := range []float32{0, v[0]} {
		sum, wantSum := ExpShift(got, v, m), expShiftGo(want, v, m, 0)
		for i := range got {
			if !same32(got[i], want[i]) {
				return fmt.Sprintf("ExpShift(%v − %v) = %v, Go %v", v[i], m, got[i], want[i])
			}
		}
		if !same64(sum, wantSum) {
			return fmt.Sprintf("ExpShift sum over %d from %v, m %v: %v, Go %v", n, v[0], m, sum, wantSum)
		}
	}
	return ""
}

// expSweep runs expCheck over the float32 bit patterns 0, stride, 2·stride,
// … below 2^32 in chunks of 4096 (every product on every 16th chunk), chunk c
// on worker c mod GOMAXPROCS, and returns how many inputs it checked, how
// many chunks failed and the lowest worker's first failure. Every input a
// kernel hands the vector exp is float64 of a float32 (−x for the sigmoid,
// x − m for ExpShift), so at stride 1 the float64 check covers all of them.
func expSweep(stride uint64) (checked, failed int64, first string) {
	const chunk = 4096
	total := (1<<32 + stride - 1) / stride
	chunks := int64((total + chunk - 1) / chunk)
	workers := runtime.GOMAXPROCS(0)
	done, fails, firsts := make([]int64, workers), make([]int64, workers), make([]string, workers)
	bands(workers, 1, workers, func(w, _, _ int) {
		v := make([]float32, 0, chunk)
		for c := int64(w); c < chunks; c += int64(workers) {
			v = v[:0]
			for i := uint64(c) * chunk; i < min(uint64(c+1)*chunk, total); i++ {
				v = append(v, math.Float32frombits(uint32(i*stride)))
			}
			done[w] += int64(len(v))
			if msg := expCheck(v, c%16 == 0); msg != "" {
				if fails[w]++; firsts[w] == "" {
					firsts[w] = msg
				}
			}
		}
	})
	for w := range done {
		checked, failed = checked+done[w], failed+fails[w]
		if first == "" {
			first = firsts[w]
		}
	}
	return checked, failed, first
}

// TestExpKernelsMatchMath holds the vector exp and both kernels over it to
// their math.Exp loops on every 97th float32 bit pattern and on the named
// specials at every length 1–40 and base offset 0–3 (groups of 4 with and
// without a turned-away lane, and the Go tail). The full sweep over all 2^32
// is scripts/exp-exhaustive.sh. On a machine without the vector exp it
// compares the Go loops with themselves.
func TestExpKernelsMatchMath(t *testing.T) {
	t.Logf("vector exp: %v", useExp)
	checked, failed, first := expSweep(97)
	if failed > 0 {
		t.Fatalf("%d of %d chunks differ; first: %s", failed, (checked+4095)/4096, first)
	}
	g := NewRNG(28)
	for n := 1; n <= 40; n++ {
		for off := 0; off < 4; off++ {
			v := g.Normal(0, 8, 1, off+n).Data[off:]
			for i := (n + off) % 3; i < n; i += 2 + off {
				v[i] = expSpecials[(i*7+n)%len(expSpecials)]
			}
			if msg := expCheck(v, true); msg != "" {
				t.Fatalf("n=%d off=%d: %s", n, off, msg)
			}
		}
	}
	if msg := expCheck(expSpecials, true); msg != "" {
		t.Fatal(msg)
	}
}

// TestExpGateFollowsMath forces the gate a host without FMA has: under
// GODEBUG=cpu.fma=off math.Exp takes its non-FMA path, which rounds expProbe
// differently. The test re-runs itself so: there the gate must be off, the
// vector exp (still executable) must disagree with math.Exp on a probe, and
// ExpShift must agree with math.Exp — which only the Go loop can. Run plain
// on a host with AVX2 and FMA, the gate must be on: a vector exp that
// strayed from math.Exp would otherwise turn itself off unnoticed.
func TestExpGateFollowsMath(t *testing.T) {
	godebug := os.Getenv("GODEBUG")
	if strings.Contains(godebug, "cpu.fma=off") {
		if useExp {
			t.Fatal("vector exp on although math.Exp runs without FMA")
		}
		if !useAVX2 || !cpuHasFMA() {
			return // nothing left to compare against
		}
		x := [4]float64{float64(expProbe[0])}
		var e [4]float64
		expAVX2(&e[0], &x[0], 4)
		want := math.Exp(x[0])
		if e[0] == want {
			t.Fatalf("vector exp(%v) = math.Exp's non-FMA %x: the probe tells nothing", expProbe[0], math.Float64bits(want))
		}
		// exp(−700) ≈ 1e-304 vanishes in the sum, which is then exp(probe).
		v := []float32{expProbe[0], -700, -700, -700}
		if got := ExpShift(make([]float32, 4), v, 0); got != want {
			t.Fatalf("ExpShift with the gate off: exp(%v) = %x, math.Exp %x", v[0], math.Float64bits(got), math.Float64bits(want))
		}
		if msg := expCheck(append(v, expSpecials...), true); msg != "" {
			t.Fatal(msg)
		}
		return
	}
	if !useAVX2 || !cpuHasFMA() {
		t.Skip("no AVX2 and FMA: the Go loops are the only path")
	}
	if !useExp {
		if strings.Contains(godebug, "cpu.") {
			t.Skip("GODEBUG turns CPU features off: math.Exp may be off its FMA path")
		}
		t.Fatal("vector exp off on an AVX2 and FMA host: it disagrees with math.Exp on expProbe")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestExpGateFollowsMath$", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestExpGateFollowsMath") {
		t.Fatalf("GODEBUG=cpu.fma=off run: %v\n%s", err, out)
	}
}

// expFuzzInput builds n float32s off elements into a fresh backing array,
// scaled normals with special values sprinkled in where special says.
func expFuzzInput(seed int64, n, off int, scale float64, special uint8) []float32 {
	v := NewRNG(seed).Normal(0, scale, 1, off+n).Data[off:]
	if special != 0 {
		for i := int(special) % 5; i < n; i += 1 + int(special)%7 {
			v[i] = expSpecials[(i+int(special))%len(expSpecials)]
		}
	}
	return v
}

// FuzzSigmoid lets the engine pick the length, the base alignment of the
// three operands, the input scale, the product (SiLU, SiLUMul, SiLUGrad) and
// where the special values fall; every output is held to sigmoidGo's.
func FuzzSigmoid(f *testing.F) {
	f.Add(int64(1), uint16(128), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint16(37), uint8(3), uint8(1), uint8(9), uint8(2))
	f.Add(int64(3), uint16(3), uint8(1), uint8(2), uint8(0), uint8(7))
	f.Add(int64(4), uint16(1000), uint8(6), uint8(1), uint8(77), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, off, op, special, scaleLog uint8) {
		n, o := 1+int(nRaw)%2048, int(off)%8
		scale := math.Ldexp(1, int(scaleLog)%12-2)
		x := expFuzzInput(seed, n, o, scale, special)
		y := expFuzzInput(seed+1, n, (o+3)%8, 1, special/2)
		got, want := make([]float32, o+n)[o:], make([]float32, n)
		sigmoidOp("fuzz", got, x, y, int(op)%3)
		sigmoidGo(want, x, y, int(op)%3)
		sameFloats(t, fmt.Sprintf("op %d n=%d off=%d", op%3, n, o), got, want)
	})
}

// FuzzExpShift lets the engine pick the length, the base alignment, the
// input scale, m (any float32, special or not) and where the special values
// fall; dst and the in-order float64 sum are held to expShiftGo's, in place
// too.
func FuzzExpShift(f *testing.F) {
	f.Add(int64(1), uint16(128), uint8(0), uint32(0), uint8(0), uint8(0))
	f.Add(int64(2), uint16(33), uint8(5), math.Float32bits(3.5), uint8(9), uint8(4))
	f.Add(int64(3), uint16(2), uint8(1), math.Float32bits(-700), uint8(0), uint8(9))
	f.Add(int64(4), uint16(700), uint8(7), uint32(0x7fc00000), uint8(13), uint8(11))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, off uint8, mBits uint32, special, scaleLog uint8) {
		n, o := 1+int(nRaw)%2048, int(off)%8
		x := expFuzzInput(seed, n, o, math.Ldexp(1, int(scaleLog)%12-2), special)
		m := math.Float32frombits(mBits)
		got, want := make([]float32, o+n)[o:], make([]float32, n)
		sum, wantSum := ExpShift(got, x, m), expShiftGo(want, x, m, 0)
		name := fmt.Sprintf("n=%d off=%d m=%v", n, o, m)
		sameFloats(t, name, got, want)
		if !same64(sum, wantSum) {
			t.Fatalf("%s: sum %v, Go %v", name, sum, wantSum)
		}
		if sum = ExpShift(x, x, m); !same64(sum, wantSum) {
			t.Fatalf("%s in place: sum %v, Go %v", name, sum, wantSum)
		}
		sameFloats(t, name+" in place", x, want)
	})
}

// TestAddInPlaceMatchesGo pins the accumulation against addGo at lengths
// below, at and around multiples of 8 and 32, at unaligned bases, with
// special values, and with the operand aliasing the target.
func TestAddInPlaceMatchesGo(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 40, 71, 264} {
		for off := 0; off < 3; off++ {
			g := NewRNG(int64(n*10 + off))
			dst := g.Normal(0, 1, 1, off+n).Data[off:]
			src := g.Normal(0, 1, 1, n+off).Data[:n]
			for i := off; i < n; i += 5 {
				src[i] = specialValues[i%len(specialValues)]
			}
			want := append([]float32(nil), dst...)
			addGo(want, src)
			FromSlice(dst, 1, n).AddInPlace(FromSlice(src, 1, n))
			sameFloats(t, fmt.Sprintf("AddInPlace n=%d off=%d", n, off), dst, want)
			want = append(want[:0], src...)
			addGo(want, src)
			FromSlice(src, 1, n).AddInPlace(FromSlice(src, 1, n))
			sameFloats(t, fmt.Sprintf("AddInPlace aliased n=%d off=%d", n, off), src, want)
		}
	}
}

// TestMulKernelsMatchGo pins MulInto, MulInPlace and ScaleInPlace against
// their Go loops at lengths below, at and around multiples of 8 and 32, at
// unaligned bases, with special values, and aliased.
func TestMulKernelsMatchGo(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 40, 71, 264} {
		for off := 0; off < 3; off++ {
			g := NewRNG(int64(n*10 + off))
			a := g.Normal(0, 1, 1, off+n).Data[off:]
			b := g.Normal(0, 1, 1, n+off).Data[:n]
			for i := off; i < n; i += 5 {
				b[i] = specialValues[i%len(specialValues)]
			}
			name := fmt.Sprintf("n=%d off=%d", n, off)
			want := make([]float32, n)
			mulGo(want, a, b)
			got := make([]float32, n)
			MulInto(got, a, b)
			sameFloats(t, "MulInto "+name, got, want)
			inPlace := append([]float32(nil), a...)
			FromSlice(inPlace, 1, n).MulInPlace(FromSlice(b, 1, n))
			sameFloats(t, "MulInPlace "+name, inPlace, want)
			for _, s := range []float32{0.37, -3, 0} {
				want = append(want[:0], b...)
				scaleGo(want, s)
				got = append(got[:0], b...)
				FromSlice(got, 1, n).ScaleInPlace(s)
				sameFloats(t, fmt.Sprintf("ScaleInPlace(%v) %s", s, name), got, want)
			}
		}
	}
}

// rowCases are the rows the row kernels are held to their float64
// definitions on: both zeros, ±Inf among finite values, all −Inf, a NaN at
// either end, and normals at lengths on and off a group of 4.
func rowCases() map[string][]float32 {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	g := NewRNG(9)
	return map[string][]float32{
		"zeros":         {0, negZero, 0, negZero, 0},
		"negative zero": {negZero, negZero, 0},
		"+Inf":          {1, inf, -2, 3},
		"-Inf":          {1, -inf, -2, 3, 0.5},
		"all -Inf":      {-inf, -inf, -inf},
		"NaN first":     {nan, 1, 2, 3},
		"NaN last":      {1, 2, 3, 4, nan},
		"normal 37":     g.Normal(0, 3, 37).Data,
		"normal 64":     g.Normal(0, 3, 64).Data,
	}
}

// nearRef reports whether got is ref within rel relative error, with NaN
// only where ref is NaN and ref's exact value (zero sign included) where ref
// is zero or infinite.
func nearRef(got float32, ref, rel float64) bool {
	switch {
	case math.IsNaN(ref):
		return got != got
	case ref == 0 || math.IsInf(ref, 0):
		return same32(got, float32(ref))
	}
	return math.Abs(float64(got)-ref) <= rel*math.Abs(ref)
}

// TestSoftmaxRowMatchesFloat64 holds SoftmaxRow to softmax(scale·x) in
// float64 — exp(y_i − max y) / Σ exp(y_j − max y) — on every row case at two
// scales, in place too; every finite row sums to 1 with no negative entry.
func TestSoftmaxRowMatchesFloat64(t *testing.T) {
	for name, x := range rowCases() {
		for _, scale := range []float32{1, 0.125} {
			y := make([]float64, len(x))
			m := math.Inf(-1)
			for i, v := range x {
				if y[i] = float64(v) * float64(scale); y[i] > m {
					m = y[i]
				}
			}
			var s float64
			for i := range y {
				y[i] = math.Exp(y[i] - m)
				s += y[i]
			}
			got := make([]float32, len(x))
			SoftmaxRow(got, x, scale)
			var sum float64
			for i, p := range got {
				if !nearRef(p, y[i]/s, 1e-5) {
					t.Fatalf("%s scale %v: p[%d] = %v, float64 %v", name, scale, i, p, y[i]/s)
				}
				sum += float64(p)
			}
			if !math.IsNaN(s) && (math.Abs(sum-1) > 1e-5 || slices.Min(got) < 0) {
				t.Fatalf("%s scale %v: row %v sums to %v", name, scale, got, sum)
			}
			inPlace := append([]float32(nil), x...)
			SoftmaxRow(inPlace, inPlace, scale)
			sameFloats(t, name+" in place", inPlace, got)
		}
	}
}

// TestLogSumExpRowMatchesFloat64 holds LogSumExpRow to max x and
// log Σ exp(x_i − max x) in float64 on every row case.
func TestLogSumExpRowMatchesFloat64(t *testing.T) {
	for name, x := range rowCases() {
		wantM := float32(math.Inf(-1))
		for _, v := range x {
			if v > wantM {
				wantM = v
			}
		}
		var s float64
		for _, v := range x {
			s += math.Exp(float64(v) - float64(wantM))
		}
		want := math.Log(s)
		m, logSum := LogSumExpRow(make([]float32, len(x)), x)
		if !same32(m, wantM) {
			t.Fatalf("%s: max %v, want %v", name, m, wantM)
		}
		if !same64(logSum, want) && !(math.Abs(logSum-want) <= 1e-6*max(1, math.Abs(want))) {
			t.Fatalf("%s: log-sum %v, float64 %v", name, logSum, want)
		}
	}
}

// TestRMSNormRowMatchesFloat64 holds RMSNormRow to x_j·g_j/√(Σx²/n + eps)
// in float64 on every row case, with eps 0 and 1e-5, in place too.
func TestRMSNormRowMatchesFloat64(t *testing.T) {
	for name, x := range rowCases() {
		gain := NewRNG(int64(len(x))).Uniform(0.5, 1.5, len(x)).Data
		for _, eps := range []float32{0, 1e-5} {
			var ss float64
			for _, v := range x {
				ss += float64(v) * float64(v)
			}
			wantInv := 1 / math.Sqrt(ss/float64(len(x))+float64(eps))
			got := make([]float32, len(x))
			if inv := RMSNormRow(got, x, gain, eps); !nearRef(inv, wantInv, 1e-6) {
				t.Fatalf("%s eps %v: inv %v, float64 %v", name, eps, inv, wantInv)
			}
			for j, v := range x {
				if want := float64(v) * wantInv * float64(gain[j]); !nearRef(got[j], want, 1e-6) {
					t.Fatalf("%s eps %v: y[%d] = %v, float64 %v", name, eps, j, got[j], want)
				}
			}
			inPlace := append([]float32(nil), x...)
			RMSNormRow(inPlace, inPlace, gain, eps)
			sameFloats(t, name+" in place", inPlace, got)
		}
	}
}
