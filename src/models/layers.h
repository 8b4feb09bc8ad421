/**
 * @file
 * Layer-level helpers on top of TraceBuilder.
 *
 * CnnBuilder tracks feature-map shapes through convolutional networks;
 * SeqBuilder does the same for token sequences in transformers. Both emit
 * the kernel sequences a cuDNN/cuBLAS-backed framework would launch
 * (conv/BN/ReLU as separate kernels, attention as QKV/score/softmax/
 * context/proj kernels, etc.), which is what gives the traces the kernel
 * counts and tensor-size distributions of the paper's Table 1 workloads.
 */

#ifndef G10_MODELS_LAYERS_H
#define G10_MODELS_LAYERS_H

#include <string>
#include <vector>

#include "models/trace_builder.h"

namespace g10 {

/** A (per-sample) feature-map shape attached to its tensor. */
struct FMap
{
    TensorId t = kInvalidTensor;
    int c = 0;  ///< channels
    int h = 0;  ///< height
    int w = 0;  ///< width
};

/** Convolutional-network layer emitter. */
class CnnBuilder
{
  public:
    /**
     * @param builder underlying tape builder
     * @param batch   batch size
     * @param ws_cap  cuDNN-style conv workspace limit
     */
    CnnBuilder(TraceBuilder& builder, int batch, Bytes ws_cap = 4 * GiB)
        : b_(builder), n_(batch), wsCap_(ws_cap)
    {}

    /** Network input image batch. */
    FMap input(int c, int h, int w, const std::string& name = "image");

    /** Plain convolution (no bias; BN provides affine). */
    FMap conv(const FMap& in, int out_c, int k, int stride, int pad,
              const std::string& name, int groups = 1);

    /** Asymmetric convolution (Inception 1x7 / 7x1 factorizations). */
    FMap convRect(const FMap& in, int out_c, int kh, int kw, int stride,
                  int pad_h, int pad_w, const std::string& name);

    /** Batch normalization with learned scale/shift. */
    FMap batchNorm(const FMap& in, const std::string& name);

    /** Elementwise ReLU. */
    FMap relu(const FMap& in, const std::string& name);

    /** Elementwise sigmoid (SE gates). */
    FMap sigmoid(const FMap& in, const std::string& name);

    /** Max pooling. */
    FMap maxPool(const FMap& in, int k, int stride, int pad,
                 const std::string& name);

    /** Average pooling. */
    FMap avgPool(const FMap& in, int k, int stride, int pad,
                 const std::string& name);

    /** Global average pooling to 1x1. */
    FMap globalAvgPool(const FMap& in, const std::string& name);

    /** Elementwise residual addition (shapes must match). */
    FMap add(const FMap& a, const FMap& b, const std::string& name);

    /** Channel concatenation (inception joins). */
    FMap concat(const std::vector<FMap>& parts, const std::string& name);

    /** Per-channel scaling of @p x by gate @p g (SE excitation). */
    FMap channelScale(const FMap& x, const FMap& g,
                      const std::string& name);

    /** Fully connected layer on a flattened map. */
    FMap fc(const FMap& in, int out_dim, const std::string& name);

    /** conv + batchNorm + relu shorthand. */
    FMap convBnRelu(const FMap& in, int out_c, int k, int stride, int pad,
                    const std::string& name, int groups = 1);

    /** Per-batch activation size of shape (c,h,w). */
    Bytes actBytes(int c, int h, int w) const;

    int batch() const { return n_; }
    TraceBuilder& builder() { return b_; }

  private:
    TraceBuilder& b_;
    int n_;
    Bytes wsCap_;
};

/** Transformer-encoder layer emitter. */
class SeqBuilder
{
  public:
    /**
     * @param use_dropout emit dropout kernels + saved masks (BERT's
     *        defaults train with dropout; HF ViT defaults to 0.0)
     */
    SeqBuilder(TraceBuilder& builder, int batch, int seq_len, int hidden,
               int heads, bool use_dropout = true)
        : b_(builder), n_(batch), s_(seq_len), d_(hidden), h_(heads),
          useDropout_(use_dropout)
    {}

    /** Token-id input + embedding lookup + positional add + layernorm. */
    TensorId embeddings(int vocab, const std::string& name);

    /**
     * Patch-embedding front end for ViT: conv patchify + position add
     * + (class token concat folded into seq_len).
     */
    TensorId patchEmbeddings(int image_hw, int patch, int channels,
                             const std::string& name);

    /** One pre-LN transformer encoder block; returns the block output. */
    TensorId encoderLayer(TensorId x, const std::string& name);

    /** Classifier head: layernorm + pooled linear to @p classes. */
    TensorId classifierHead(TensorId x, int classes,
                            const std::string& name);

    /** Bytes of one (batch, seq, dim) activation. */
    Bytes seqBytes(int dim) const;

    int batch() const { return n_; }
    int hidden() const { return d_; }

  private:
    TensorId linear(TensorId x, int in_dim, int out_dim,
                    const std::string& name);
    TensorId layerNorm(TensorId x, int dim, const std::string& name);
    TensorId dropout(TensorId x, Bytes bytes, const std::string& name);
    TensorId transpose(TensorId x, Bytes bytes, const std::string& name);

    TraceBuilder& b_;
    int n_;
    int s_;
    int d_;
    int h_;
    bool useDropout_;
};

}  // namespace g10

#endif  // G10_MODELS_LAYERS_H
