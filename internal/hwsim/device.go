// Package hwsim is the edge-GPU substrate of this reproduction: an
// analytical roofline-style cost model for the GEMM and attention kernels
// of a transformer under layerwise compression, a hardware scheduling
// search space (tile sizes × dataflow × double-buffering), exhaustive and
// simulated-annealing schedule search, and a per-training-iteration latency
// estimator.
//
// The paper measures wall-clock on a physical edge GPU; we replace it with
// a calibrated analytical device model (see DESIGN.md §2). All headline
// quantities are ratios between workloads on the same device, which the
// model preserves: compute-bound vs memory-bound crossovers, the effect of
// weight bit-width and sparsity on traffic, SM tail quantization, and the
// serialization cost of unbuffered schedules.
package hwsim

import "fmt"

// Device is the analytical edge-GPU model.
type Device struct {
	// Name labels the device in reports.
	Name string
	// PeakFLOPS is the fp16 MAC throughput in FLOP/s (2 FLOPs per MAC).
	PeakFLOPS float64
	// DRAMBandwidth is sustained off-chip bandwidth in bytes/s.
	DRAMBandwidth float64
	// SRAMBytes is the per-SM on-chip buffer capacity available to one
	// kernel's tiles.
	SRAMBytes int64
	// SMs is the number of streaming multiprocessors (tile-block slots).
	SMs int
	// IntSpeedup maps a weight bit-width to the compute-throughput
	// multiplier its integer pipeline achieves over fp16 (1.0 when the
	// width has no native support and falls back to dequant+fp16).
	IntSpeedup map[int]float64
	// DequantOverhead is the fractional compute overhead of unpacking
	// sub-byte weights without native support.
	DequantOverhead float64
	// KernelLaunchSec is the fixed per-kernel launch latency.
	KernelLaunchSec float64
}

// EdgeGPU returns the default Jetson-class device used by the experiments:
// ~1 TFLOP/s fp16, 60 GB/s LPDDR, 96 KiB usable SRAM per SM, 8 SMs, with
// int8 executing 2× fp16 and 4-bit executing 2.5× via dp4a-style packing.
func EdgeGPU() Device {
	return Device{
		Name:          "edge-gpu-1t60g",
		PeakFLOPS:     1e12,
		DRAMBandwidth: 60e9,
		SRAMBytes:     96 << 10,
		SMs:           8,
		IntSpeedup: map[int]float64{
			16: 1.0,
			8:  2.0,
			4:  2.5,
			3:  2.5,
			2:  3.0,
		},
		DequantOverhead: 0.10,
		KernelLaunchSec: 5e-6,
	}
}

// Validate reports the first implausible field.
func (d Device) Validate() error {
	switch {
	case d.PeakFLOPS <= 0:
		return fmt.Errorf("hwsim: PeakFLOPS must be positive")
	case d.DRAMBandwidth <= 0:
		return fmt.Errorf("hwsim: DRAMBandwidth must be positive")
	case d.SRAMBytes <= 0:
		return fmt.Errorf("hwsim: SRAMBytes must be positive")
	case d.SMs <= 0:
		return fmt.Errorf("hwsim: SMs must be positive")
	}
	return nil
}

// speedupFor returns the compute multiplier for a weight bit-width,
// falling back to 1.0 (fp16 path) for unknown widths.
func (d Device) speedupFor(bits int) float64 {
	if s, ok := d.IntSpeedup[bits]; ok {
		return s
	}
	return 1.0
}

// Cost is the modeled execution cost of a kernel or workload.
type Cost struct {
	// ComputeSec is the arithmetic time at the achieved efficiency.
	ComputeSec float64
	// MemorySec is the DRAM traffic time.
	MemorySec float64
	// TotalSec is the modeled wall-clock (overlap depends on schedule).
	TotalSec float64
	// FLOPs is the useful arithmetic work of the workload.
	FLOPs float64
	// TrafficBytes is the modeled DRAM traffic.
	TrafficBytes float64
	// IdealSec is the arithmetic time a perfectly scheduled kernel would
	// take at its precision's full throughput (no occupancy, padding, or
	// drain losses, full overlap). Utilization is IdealSec/TotalSec.
	IdealSec float64
}

// Add accumulates another cost (kernels executed back to back).
func (c Cost) Add(o Cost) Cost {
	return Cost{
		ComputeSec:   c.ComputeSec + o.ComputeSec,
		MemorySec:    c.MemorySec + o.MemorySec,
		TotalSec:     c.TotalSec + o.TotalSec,
		FLOPs:        c.FLOPs + o.FLOPs,
		TrafficBytes: c.TrafficBytes + o.TrafficBytes,
		IdealSec:     c.IdealSec + o.IdealSec,
	}
}

// Scale multiplies every component by n: an instance count, or 1/n for the
// mean of n summed costs.
func (c Cost) Scale(n float64) Cost {
	return Cost{
		ComputeSec:   c.ComputeSec * n,
		MemorySec:    c.MemorySec * n,
		TotalSec:     c.TotalSec * n,
		FLOPs:        c.FLOPs * n,
		TrafficBytes: c.TrafficBytes * n,
		IdealSec:     c.IdealSec * n,
	}
}

// Utilization is the achieved fraction of the device's precision-adjusted
// peak over the workload's total modeled time. It is ≤ 1 by construction:
// IdealSec is a lower bound on ComputeSec, which is a lower bound on
// TotalSec.
func (c Cost) Utilization(d Device) float64 {
	if c.TotalSec == 0 {
		return 0
	}
	return c.IdealSec / c.TotalSec
}
