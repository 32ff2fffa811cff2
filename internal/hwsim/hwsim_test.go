package hwsim

import (
	"math"
	"testing"
	"testing/quick"

	"edgellm/internal/nn"
)

func dev() Device { return EdgeGPU() }

func bigGEMM() GEMM { return GEMM{M: 512, N: 512, K: 512, WeightBits: 16} }

func TestDeviceValidate(t *testing.T) {
	if err := dev().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Device{}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero device must be invalid")
	}
}

func TestScheduleFitsSRAM(t *testing.T) {
	d := dev()
	g := bigGEMM()
	small := Schedule{TileM: 16, TileN: 16, TileK: 16, Flow: OutputStationary}
	if !small.Fits(d, g) {
		t.Fatal("16³ tiles must fit 96KiB")
	}
	huge := Schedule{TileM: 128, TileN: 128, TileK: 128, Flow: OutputStationary}
	// 128·128·(2+2+4) bytes ≈ 128KiB > 96KiB
	if huge.Fits(d, g) {
		t.Fatal("128³ fp16 tiles must not fit 96KiB")
	}
}

func TestDoubleBufferIncreasesFootprint(t *testing.T) {
	g := bigGEMM()
	s := Schedule{TileM: 32, TileN: 32, TileK: 32, Flow: OutputStationary}
	sd := s
	sd.DoubleBuffer = true
	if sd.SRAMNeeded(g) <= s.SRAMNeeded(g) {
		t.Fatal("double buffering must increase SRAM footprint")
	}
}

func TestQuantizedWeightsShrinkTileAndTraffic(t *testing.T) {
	s := Schedule{TileM: 32, TileN: 32, TileK: 32, Flow: OutputStationary}
	fp := bigGEMM()
	q4 := fp
	q4.WeightBits = 4
	if s.SRAMNeeded(q4) >= s.SRAMNeeded(fp) {
		t.Fatal("4-bit weights must shrink the B tile")
	}
	if s.Traffic(q4) >= s.Traffic(fp) {
		t.Fatal("4-bit weights must reduce DRAM traffic")
	}
	sparse := q4
	sparse.WeightSparsity = 0.5
	if s.Traffic(sparse) >= s.Traffic(q4) {
		t.Fatal("pruned weights must reduce DRAM traffic further")
	}
}

func TestTrafficLargerTilesMoreReuse(t *testing.T) {
	g := bigGEMM()
	small := Schedule{TileM: 16, TileN: 16, TileK: 16, Flow: OutputStationary}
	large := Schedule{TileM: 64, TileN: 64, TileK: 64, Flow: OutputStationary}
	if large.Traffic(g) >= small.Traffic(g) {
		t.Fatal("bigger tiles must reduce re-streaming traffic")
	}
}

func TestTrafficLowerBound(t *testing.T) {
	// No schedule may move less than the compulsory traffic (each operand
	// once).
	g := bigGEMM()
	compulsory := float64(g.M*g.K)*2 + float64(g.K*g.N)*2 + float64(g.M*g.N)*4
	for _, s := range Space(dev(), g) {
		if s.Traffic(g) < compulsory-1 {
			t.Fatalf("schedule %v moves %v < compulsory %v", s, s.Traffic(g), compulsory)
		}
	}
}

func TestWeightStationaryReadsWeightsOnce(t *testing.T) {
	g := bigGEMM()
	s := Schedule{TileM: 32, TileN: 32, TileK: 32, Flow: WeightStationary}
	// B contribution must be exactly K·N·2 bytes; check by comparing
	// traffic at sparsity 0 and 1 (sparsity removes only B traffic).
	sp := g
	sp.WeightSparsity = 1
	bBytes := s.Traffic(g) - s.Traffic(sp)
	want := float64(g.K*g.N) * 2
	if math.Abs(bBytes-want) > 1 {
		t.Fatalf("WS B traffic %v, want %v", bBytes, want)
	}
}

func TestCostUtilizationBounded(t *testing.T) {
	d := dev()
	for _, s := range Space(d, bigGEMM()) {
		c := s.Cost(d, bigGEMM())
		u := c.Utilization(d)
		if u <= 0 || u > 1.0+1e-9 {
			t.Fatalf("schedule %v utilization %v out of (0,1]", s, u)
		}
		if c.TotalSec < math.Max(c.ComputeSec, c.MemorySec) {
			t.Fatalf("schedule %v total below max(compute,mem)", s)
		}
	}
}

func TestInt8FasterThanFP16Compute(t *testing.T) {
	d := dev()
	s := Schedule{TileM: 64, TileN: 64, TileK: 32, Flow: OutputStationary, DoubleBuffer: true}
	fp := bigGEMM()
	q8 := fp
	q8.WeightBits = 8
	if s.Cost(d, q8).ComputeSec >= s.Cost(d, fp).ComputeSec {
		t.Fatal("int8 path must be faster than fp16")
	}
}

func TestSearchExhaustiveBeatsNaive(t *testing.T) {
	d := dev()
	for _, g := range []GEMM{
		bigGEMM(),
		{M: 64, N: 2048, K: 128, WeightBits: 4, WeightSparsity: 0.5},
		{M: 16, N: 128, K: 128, WeightBits: 2},
	} {
		_, best := SearchExhaustive(d, g)
		naive := NaiveSchedule().Cost(d, g)
		if best.TotalSec > naive.TotalSec {
			t.Fatalf("searched %v slower than naive %v for %+v", best.TotalSec, naive.TotalSec, g)
		}
	}
}

func TestSearchDeterministic(t *testing.T) {
	d := dev()
	s1, c1 := SearchExhaustive(d, bigGEMM())
	s2, c2 := SearchExhaustive(d, bigGEMM())
	if s1 != s2 || c1.TotalSec != c2.TotalSec {
		t.Fatal("exhaustive search must be deterministic")
	}
}

func TestSearchAnnealedNearExhaustive(t *testing.T) {
	d := dev()
	g := GEMM{M: 256, N: 1024, K: 256, WeightBits: 4}
	_, exact := SearchExhaustive(d, g)
	_, sa := SearchAnnealed(d, g, 1, 2000)
	if sa.TotalSec > exact.TotalSec*1.25 {
		t.Fatalf("annealed %.3g more than 25%% off exhaustive %.3g", sa.TotalSec, exact.TotalSec)
	}
}

func TestAnalyzeSpaceOrdering(t *testing.T) {
	st := AnalyzeSpace(dev(), bigGEMM())
	if st.Count == 0 {
		t.Fatal("empty space")
	}
	if !(st.BestSec <= st.MedianSec && st.MedianSec <= st.WorstSec) {
		t.Fatalf("distribution out of order: %+v", st)
	}
	if st.BestUtil < st.MedianUtil {
		t.Fatal("best schedule should have ≥ median utilization")
	}
}

func tinyCfg(layers int) nn.Config {
	return nn.Config{Vocab: 256, Dim: 256, Heads: 8, Layers: layers, Hidden: 512, MaxSeq: 128, ExitHeads: true}
}

func TestIterationCostWindowMonotone(t *testing.T) {
	d := dev()
	sched := NewSearchedScheduler()
	cfg := tinyCfg(8)
	prev := 0.0
	for hi := 0; hi < 8; hi++ {
		spec := VanillaIteration(cfg, 4, 64)
		spec.WindowLo, spec.WindowHi = maxInt(0, hi-1), hi
		c := IterationCost(d, sched, spec)
		if c.TotalSec <= prev {
			t.Fatalf("iteration cost must grow with window top: %v at hi=%d", c.TotalSec, hi)
		}
		prev = c.TotalSec
	}
}

// TestCycleCostMatchesOpenCodedLoop: CycleCost is the loop T3, F4, F6, F7
// and Pipeline.IterationCost each wrote out by hand — sum IterationCost over
// a sliding cycle of window tops, divide every Cost field by the count.
func TestCycleCostMatchesOpenCodedLoop(t *testing.T) {
	d := dev()
	cfg := tinyCfg(6)
	spec := VanillaIteration(cfg, 2, 32).WithCompression(LayerCompression{Bits: 4, Sparsity: 0.5})
	for _, w := range []int{1, 2, cfg.Layers} {
		var sum Cost
		for hi := 0; hi < cfg.Layers; hi++ {
			s := spec
			s.WindowLo, s.WindowHi = maxInt(0, hi-w+1), hi
			sum = sum.Add(IterationCost(d, NaiveScheduler{}, s))
		}
		n := float64(cfg.Layers)
		want := []float64{sum.ComputeSec / n, sum.MemorySec / n, sum.TotalSec / n,
			sum.FLOPs / n, sum.TrafficBytes / n, sum.IdealSec / n}
		c := CycleCost(d, NaiveScheduler{}, spec, cfg.Layers, SlidingWindow(w))
		got := []float64{c.ComputeSec, c.MemorySec, c.TotalSec, c.FLOPs, c.TrafficBytes, c.IdealSec}
		for i := range want {
			// x·(1/n) and x/n may round apart in the last bit.
			if math.Abs(got[i]-want[i]) > 1e-15*math.Abs(want[i]) {
				t.Errorf("window %d field %d: CycleCost %v, open-coded mean %v", w, i, got[i], want[i])
			}
		}
	}
}

func TestCompressedWindowedBeatsVanilla(t *testing.T) {
	// The headline claim (T3/F4): LUC compression + windowed backprop +
	// searched schedules beat vanilla full tuning by a healthy factor.
	d := dev()
	cfg := tinyCfg(8)
	naiveSched := NaiveScheduler{}
	vanilla := IterationCost(d, naiveSched, VanillaIteration(cfg, 4, 64))

	edge := VanillaIteration(cfg, 4, 64)
	for i := range edge.Compression {
		edge.Compression[i] = LayerCompression{Bits: 4, Sparsity: 0.5}
	}
	edge.WindowLo, edge.WindowHi = 5, 6 // window of 2 ending below the top
	edgeCost := IterationCost(d, NewSearchedScheduler(), edge)

	sp := Speedup(vanilla, edgeCost)
	if sp < 1.5 {
		t.Fatalf("Edge-LLM iteration speedup %.2f×, want ≥ 1.5×", sp)
	}
}

func TestFusionSavesTraffic(t *testing.T) {
	d := dev()
	sched := NewSearchedScheduler()
	cfg := tinyCfg(4)
	comp := LayerCompression{Bits: 4, Sparsity: 0.5}
	fused := BlockForwardCostOpts(d, sched, cfg, 4, 64, comp, true)
	unfused := BlockForwardCostOpts(d, sched, cfg, 4, 64, comp, false)
	if unfused.TotalSec <= fused.TotalSec || unfused.TrafficBytes <= fused.TrafficBytes {
		t.Fatal("unfused elementwise ops must cost extra traffic and time")
	}
	// Compute time is identical — fusion only changes memory traffic.
	if unfused.ComputeSec != fused.ComputeSec {
		t.Fatal("fusion must not change modeled compute time")
	}
	bwdF := BlockBackwardCostOpts(d, sched, cfg, 4, 64, comp, true)
	bwdU := BlockBackwardCostOpts(d, sched, cfg, 4, 64, comp, false)
	if bwdU.TrafficBytes-bwdF.TrafficBytes <= unfused.TrafficBytes-fused.TrafficBytes {
		t.Fatal("backward must pay more elementwise traffic than forward")
	}
}

func TestSchedulerMemoization(t *testing.T) {
	d := dev()
	ss := NewSearchedScheduler()
	g := bigGEMM()
	s1, c1 := ss.Schedule(d, g)
	s2, c2 := ss.Schedule(d, g)
	if s1 != s2 || c1 != c2 {
		t.Fatal("memoised scheduler must return identical results")
	}
	if len(ss.cache) != 1 {
		t.Fatal("cache must hold one entry")
	}
}

func TestIterationSpecValidation(t *testing.T) {
	d := dev()
	spec := VanillaIteration(tinyCfg(4), 2, 16)
	spec.WindowHi = 9
	defer func() {
		if recover() == nil {
			t.Fatal("invalid window must panic")
		}
	}()
	IterationCost(d, NaiveScheduler{}, spec)
}

func TestPropSearchedNeverWorseThanNaive(t *testing.T) {
	d := dev()
	f := func(m16, n16, k16 uint16, bits8 uint8, sp8 uint8) bool {
		g := GEMM{
			M:              int(m16%1024) + 1,
			N:              int(n16%1024) + 1,
			K:              int(k16%1024) + 1,
			WeightBits:     []int{16, 8, 4, 3, 2}[bits8%5],
			WeightSparsity: float64(sp8%4) * 0.25,
		}
		_, best := SearchExhaustive(d, g)
		naive := NaiveSchedule().Cost(d, g)
		return best.TotalSec <= naive.TotalSec+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropCostsPositiveAndConsistent(t *testing.T) {
	d := dev()
	f := func(m16, n16, k16 uint16) bool {
		g := GEMM{M: int(m16%512) + 1, N: int(n16%512) + 1, K: int(k16%512) + 1, WeightBits: 16}
		s := Schedule{TileM: 32, TileN: 32, TileK: 32, Flow: OutputStationary, DoubleBuffer: true}
		c := s.Cost(d, g)
		return c.ComputeSec > 0 && c.MemorySec > 0 &&
			c.TotalSec >= math.Max(c.ComputeSec, c.MemorySec) &&
			c.FLOPs == g.FLOPs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
