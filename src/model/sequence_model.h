#ifndef FIELDSWAP_MODEL_SEQUENCE_MODEL_H_
#define FIELDSWAP_MODEL_SEQUENCE_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "doc/document.h"
#include "doc/schema.h"
#include "nn/layers.h"
#include "nn/neighbors.h"
#include "nn/optimizer.h"
#include "nn/quant.h"
#include "util/rng.h"

namespace fieldswap {

/// Configuration of the sequence-labeling extraction backbone (the paper's
/// FormNet-style model, Sec. IV-B, shrunk to CPU scale).
struct SequenceModelConfig {
  int d_model = 32;
  int num_layers = 1;
  /// Tokens attend to this many off-axis-nearest neighbors plus a small
  /// reading-order window (FormNet-style locality).
  int spatial_neighbors = 10;
  int sequence_window = 2;
  int text_buckets = 4096;
  int shape_buckets = 128;
  int max_tokens = 256;
  /// Loss weight of the O class relative to B/I classes (counters extreme
  /// class imbalance on form pages).
  float outside_weight = 0.2f;
  /// Decode with BIO-constrained Viterbi (model/decoder.h) instead of
  /// greedy per-token argmax. Off by default to match the paper's simple
  /// sequence-labeling readout; an extension benchmarked in ablations.
  bool use_viterbi_decoding = false;
  uint64_t seed = 5;
};

/// A document pre-encoded for the model: feature ids, position features,
/// attention neighbor lists, and BIO labels. Computed once per document and
/// reused across training steps.
struct EncodedDoc {
  int num_tokens = 0;
  std::vector<int> text_ids;
  std::vector<int> shape_ids;
  Matrix positions;  // [T, kNumPositionFeatures]
  /// T rows of attention neighbors, shared (never copied) by every
  /// training graph built from this document.
  std::shared_ptr<const NeighborLists> neighbors;
  std::vector<int> labels;  // BIO class ids (empty if unannotated)
};

/// BIO tag utilities: class 0 is O; field f has B = 2f+1, I = 2f+2.
int BioNumClasses(int num_fields);
int BioBeginClass(int field_index);
int BioInsideClass(int field_index);
/// Field index of a B/I class, or -1 for O.
int BioFieldOf(int class_id);
bool BioIsBegin(int class_id);

/// Inference-only int8 weights of one Linear: the weight pre-transposed and
/// per-tensor symmetrically quantized, the bias kept in float.
struct Int8LinearPlan {
  QuantizedTensor weight_t;  // [out, in]
  Matrix bias;               // [1, out]
};

/// Int8 weights of one transformer block (every GEMM in the block).
struct Int8BlockPlan {
  Int8LinearPlan wq, wk, wv, wo, ff1, ff2;
};

/// Quantized inference plan of a SequenceLabelingModel (ISSUE 7): every
/// Linear's GEMM runs int8 x int8 -> int32 with per-tensor scales, while
/// embeddings, LayerNorms, attention softmax, and residual adds stay float.
/// Built once (at snapshot time); the float model is untouched, so training
/// and the float serving path are unaffected.
struct Int8Plan {
  Int8LinearPlan pos_proj;
  std::vector<Int8BlockPlan> blocks;
  Int8LinearPlan head;
};

/// Sequence labeling model over document tokens: per-token embeddings
/// (text + shape + projected position), a stack of neighbor-attention
/// transformer blocks, and a per-token BIO classification head.
class SequenceLabelingModel {
 public:
  SequenceLabelingModel(const SequenceModelConfig& config,
                        DomainSchema schema);

  /// Precomputes features, neighbor lists, and labels for the first
  /// T = min(N, max_tokens) of a document's N tokens.
  ///
  /// Neighbor contract: row i lists, in order, the reading-order window
  /// i - sequence_window .. i + sequence_window (clipped to [0, T)), then
  /// the spatial_neighbors + 1 tokens nearest to token i by (off-axis
  /// distance between box centers, index), ranked among all N tokens with
  /// token i itself a candidate (NearestOffAxis), minus any already in the
  /// window and any at index >= max_tokens. Dropping after ranking (rather
  /// than ranking only the first T) keeps long documents bit-identical to
  /// the reference encoding pinned in tests/encode_oracle_test.cc.
  ///
  /// Makes a fixed number of heap allocations per document, none per token
  /// (tools/alloc_budgets.txt).
  EncodedDoc EncodeDoc(const Document& doc) const;

  /// Forward pass to per-token class logits ([T, C] graph node).
  Var Logits(const EncodedDoc& encoded) const;

  /// Graph-free forward to per-token class logits: the same kernels in the
  /// same order as Logits(), minus the autodiff tape (no node allocation,
  /// no value copies), so the result is bit-identical to Logits()->value
  /// within a kernel backend. This is the serve hot path.
  Matrix InferLogits(const EncodedDoc& encoded) const;

  /// Builds the int8 inference plan from the current float weights.
  Int8Plan MakeInt8Plan() const;

  /// Graph-free int8 forward using a MakeInt8Plan() result.
  Matrix InferLogitsInt8(const Int8Plan& plan,
                         const EncodedDoc& encoded) const;

  /// Cross-entropy training loss for one encoded document.
  Var Loss(const EncodedDoc& encoded) const;

  /// Greedy BIO decode to predicted spans, applying the schema constraint
  /// that each field keeps only its highest-confidence span at inference
  /// time (Sec. II-C: constraints are applied at inference, not training).
  std::vector<EntitySpan> Predict(const Document& doc) const;
  std::vector<EntitySpan> PredictEncoded(const EncodedDoc& encoded) const;
  /// PredictEncoded with the int8 forward instead of the float one. Same
  /// decode; only the logits differ (by the quantization error bounded in
  /// tests/kernels_test.cc).
  std::vector<EntitySpan> PredictEncodedInt8(const Int8Plan& plan,
                                             const EncodedDoc& encoded) const;
  /// The pre-kernel serving path, retained as the benchmark baseline and as
  /// a parity oracle: the autodiff graph forward (Logits) followed by the
  /// same decode as PredictEncoded. Logits()->value is bit-identical to
  /// InferLogits() within a kernel backend, so this must return exactly
  /// what PredictEncoded returns — it is just slower by the tape overhead.
  std::vector<EntitySpan> PredictEncodedGraph(const EncodedDoc& encoded) const;

  const DomainSchema& schema() const { return schema_; }
  const SequenceModelConfig& config() const { return config_; }
  std::vector<NamedParam> Params() const;

 private:
  /// Shared decode tail of every Predict* flavor: softmax, greedy/Viterbi
  /// tags, span assembly, one-span-per-field constraint. Softmax runs one
  /// row at a time into a reusable buffer; the best span of each field is
  /// tracked by field index.
  std::vector<EntitySpan> DecodeLogits(const Matrix& logits) const;
  SequenceModelConfig config_;
  DomainSchema schema_;
  int num_classes_ = 1;
  std::vector<float> class_weights_;

  Embedding text_emb_;
  Embedding shape_emb_;
  Linear pos_proj_;
  std::vector<TransformerBlock> blocks_;
  LayerNormLayer ln_out_;
  Linear head_;
};

}  // namespace fieldswap

#endif  // FIELDSWAP_MODEL_SEQUENCE_MODEL_H_
