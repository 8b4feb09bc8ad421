/**
 * @file
 * Analytic kernel-latency model standing in for A100 profiling.
 *
 * The paper profiles every CUDA kernel of each model on a real A100 and
 * replays the measured times (§5). Without that hardware we estimate each
 * kernel's time with a classic roofline: latency is the max of compute time
 * (flops / achievable flops) and memory time (bytes / achievable DRAM
 * bandwidth), with per-operator-class efficiency factors and a floor for
 * tiny kernels. §7.6 of the paper shows the system tolerates ±20% timing
 * error, so modeling error of this magnitude does not change conclusions.
 */

#ifndef G10_MODELS_COST_MODEL_H
#define G10_MODELS_COST_MODEL_H

#include "common/types.h"
#include "graph/kernel.h"

namespace g10 {

/** Roofline latency model parameterized on GPU peak capabilities. */
class CostModel
{
  public:
    /** Defaults: NVIDIA A100-40GB (FP32 CUDA-core path, HBM2e). */
    CostModel() = default;

    /**
     * @param peak_flops  peak FP32 throughput, FLOP/s
     * @param hbm_gbps    peak DRAM bandwidth, GB/s
     */
    CostModel(double peak_flops, double hbm_gbps)
        : peakFlops_(peak_flops), hbmGBps_(hbm_gbps)
    {}

    /**
     * Latency of one kernel.
     *
     * @param kind   operator class (selects efficiency factors)
     * @param flops  floating point operations performed
     * @param bytes  DRAM traffic in bytes
     */
    TimeNs kernelTime(OpKind kind, double flops, double bytes) const;

    /** Fraction of peak FLOP/s this operator class achieves. */
    static double flopEfficiency(OpKind kind);

    /** Fraction of peak DRAM bandwidth this operator class achieves. */
    static double memEfficiency(OpKind kind);

  private:
    double peakFlops_ = 19.5e12;  // A100 FP32
    double hbmGBps_ = 1555.0;     // A100 40GB HBM2e
};

}  // namespace g10

#endif  // G10_MODELS_COST_MODEL_H
