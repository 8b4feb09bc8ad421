/**
 * @file
 * Autograd-tape trace builder.
 *
 * Model definitions emit *forward* operators through this builder; the
 * builder records a tape and, at finish(), synthesizes the full backward
 * pass (activation gradients, weight gradients, gradient accumulation at
 * dataflow joins -- cf. the paper's Fig. 6) plus SGD optimizer kernels,
 * yielding the complete one-iteration KernelTrace the vitality analyzer
 * and simulator consume.
 */

#ifndef G10_MODELS_TRACE_BUILDER_H
#define G10_MODELS_TRACE_BUILDER_H

#include <string>
#include <unordered_map>
#include <vector>

#include "graph/trace.h"
#include "models/cost_model.h"

namespace g10 {

/** Description of one forward operator for TraceBuilder::op(). */
struct OpSpec
{
    OpKind kind = OpKind::Elementwise;
    std::string name;

    /** Activation tensors the op reads. */
    std::vector<TensorId> inputs;

    /** Weight tensors the op reads (each yields a dW in backward). */
    std::vector<TensorId> weights;

    /** Size of the forward output tensor. */
    Bytes outBytes = 0;

    /** Forward floating-point work. */
    double flops = 0.0;

    /** Scratch bytes live only during the forward kernel. */
    Bytes workspaceBytes = 0;

    /** Scratch bytes live only during the backward kernel. */
    Bytes bwdWorkspaceBytes = 0;

    /** Backward flops as a multiple of forward flops (typically ~2x). */
    double bwdFlopsFactor = 2.0;

    /**
     * Per-input flag: does this input receive a gradient? Empty means
     * "all true". Raw network inputs never receive gradients regardless.
     */
    std::vector<bool> inputNeedsGrad;

    /**
     * Per-input flag: is this input kept alive and re-read by the
     * backward kernel? Empty means "all true". ReLU/softmax-style ops
     * set this false and use the output instead, which lets the input
     * die right after the forward kernel -- exactly what eager
     * frameworks do and a major driver of real lifetime patterns.
     */
    std::vector<bool> inputSavedForBwd;

    /** Backward re-reads the forward *output* (ReLU, softmax, ...). */
    bool outputUsedInBwd = false;

    /**
     * Pure routing ops (residual add): backward is a no-op; the output
     * gradient tensor itself flows to every grad-needing input, as with
     * framework view/alias semantics. No backward kernel is emitted.
     */
    bool gradPassthrough = false;

    /**
     * Extra side output saved for backward (dropout mask, BN saved
     * mean/var). Born at the forward kernel, last used by the backward
     * kernel.
     */
    Bytes extraSavedBytes = 0;

    /** If false the op participates in forward only (e.g. metrics). */
    bool differentiable = true;
};

/**
 * Builds a one-training-iteration kernel trace from forward-op calls.
 *
 * Usage:
 * @code
 *   TraceBuilder b("MyNet", batch, CostModel());
 *   TensorId x = b.input("x", bytes);
 *   TensorId w = b.weight("w", bytes);
 *   TensorId y = b.op({.kind=OpKind::Gemm, .name="fc",
 *                      .inputs={x}, .weights={w},
 *                      .outBytes=..., .flops=...});
 *   b.loss(y);
 *   KernelTrace trace = b.finish();
 * @endcode
 */
class TraceBuilder
{
  public:
    TraceBuilder(std::string model_name, int batch_size,
                 const CostModel& cost_model);

    /** Network input; emits a DataLoad kernel that materializes it. */
    TensorId input(const std::string& name, Bytes bytes);

    /** Model parameter (global tensor; no producing kernel). */
    TensorId weight(const std::string& name, Bytes bytes);

    /** Emit one forward operator; returns its output tensor. */
    TensorId op(const OpSpec& spec);

    /**
     * Mark @p logits as a training loss head: emits the loss-forward
     * reduction kernel and seeds the backward chain with d(logits).
     * May be called more than once (auxiliary heads).
     */
    void loss(TensorId logits);

    /**
     * Emit the backward pass and optimizer, then return the finished
     * trace. The builder must not be reused afterwards.
     */
    KernelTrace finish();

    /** Access to the under-construction trace (for size queries). */
    const KernelTrace& trace() const { return trace_; }

    /** Bytes of one FP32 element. */
    static constexpr Bytes kElem = 4;

  private:
    struct TapeEntry
    {
        OpKind kind;
        std::string name;
        std::vector<TensorId> inputs;
        std::vector<TensorId> weights;
        TensorId output;
        TensorId extraSaved;  // kInvalidTensor if none
        double fwdFlops;
        double bwdFlopsFactor;
        Bytes bwdWorkspaceBytes;
        std::vector<bool> inputNeedsGrad;
        std::vector<bool> inputSavedForBwd;
        bool outputUsedInBwd;
        bool gradPassthrough;
    };

    /** Sum of sizes of the given tensors. */
    Bytes bytesOf(const std::vector<TensorId>& ids) const;

    /** Accumulate partial gradient @p partial into t's gradient slot. */
    void accumulateGrad(TensorId t, TensorId partial);

    KernelTrace trace_;
    CostModel costModel_;
    std::vector<TapeEntry> tape_;
    std::vector<TensorId> weights_;
    std::vector<TensorId> networkInputs_;

    // Activation -> accumulated gradient tensor (during backward build).
    std::unordered_map<TensorId, TensorId> gradOf_;
    // Weight -> accumulated weight-gradient tensor.
    std::unordered_map<TensorId, TensorId> weightGradOf_;

    bool finished_ = false;
    bool lossSeeded_ = false;
};

}  // namespace g10

#endif  // G10_MODELS_TRACE_BUILDER_H
