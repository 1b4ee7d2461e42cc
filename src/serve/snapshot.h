#ifndef FIELDSWAP_SERVE_SNAPSHOT_H_
#define FIELDSWAP_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "model/sequence_model.h"

namespace fieldswap {
namespace serve {

/// An immutable, shareable trained model. The serving engine
/// (serve/tenant_server.h) reads each tenant's active
/// `shared_ptr<const ModelSnapshot>` from the registry once per batch, so a
/// publish (or ExtractionServer::SwapSnapshot) is a zero-downtime refresh:
/// in-flight batches keep the snapshot they started with alive until they
/// finish, new batches pick up the replacement.
///
/// `sequence()` is a process-unique id assigned at construction. Cache
/// entries (encoded documents, memoized predictions) are keyed by it, so a
/// swap can never serve stale state: entries of a retired snapshot simply
/// stop matching and age out of the LRU.
class ModelSnapshot {
 public:
  /// `version` is a human-readable label surfaced in responses ("v1",
  /// "ckpt-2026-08-05", ...); defaults to "snapshot-<sequence>".
  /// `with_int8_plan` additionally quantizes the model's GEMM weights
  /// (per-tensor symmetric int8) at construction, enabling the int8
  /// serving path (ServeOptions.int8_inference). The float weights are
  /// untouched either way.
  explicit ModelSnapshot(SequenceLabelingModel model, std::string version = "",
                         bool with_int8_plan = false);

  /// Adoption constructor for deserialized snapshots (serve/flat_snapshot.h):
  /// takes a pre-built int8 plan instead of quantizing, plus an opaque
  /// `backing` the snapshot keeps alive for its whole lifetime — the mmap
  /// holder when the model's weights are views into a mapped flat file.
  ModelSnapshot(SequenceLabelingModel model, std::string version,
                std::unique_ptr<const Int8Plan> int8_plan,
                std::shared_ptr<const void> backing);

  ModelSnapshot(const ModelSnapshot&) = delete;
  ModelSnapshot& operator=(const ModelSnapshot&) = delete;

  const SequenceLabelingModel& model() const { return model_; }
  const std::string& version() const { return version_; }
  uint64_t sequence() const { return sequence_; }

  /// The quantized inference plan, or null when the snapshot was built
  /// without one.
  const Int8Plan* int8_plan() const { return int8_plan_.get(); }

  /// Predicts spans for an encoded document using this snapshot's weights:
  /// the int8 plan when `int8` is set (FS_CHECKs the plan exists), else the
  /// float graph-free forward.
  std::vector<EntitySpan> PredictEncoded(const EncodedDoc& encoded,
                                         bool int8 = false) const;

 private:
  SequenceLabelingModel model_;
  std::string version_;
  uint64_t sequence_ = 0;
  std::unique_ptr<const Int8Plan> int8_plan_;
  std::shared_ptr<const void> backing_;  // outlives every weight view
};

/// Convenience wrapper producing the shared-ownership form the server
/// consumes.
inline std::shared_ptr<const ModelSnapshot> MakeSnapshot(
    SequenceLabelingModel model, std::string version = "",
    bool with_int8_plan = false) {
  return std::make_shared<const ModelSnapshot>(
      std::move(model), std::move(version), with_int8_plan);
}

}  // namespace serve
}  // namespace fieldswap

#endif  // FIELDSWAP_SERVE_SNAPSHOT_H_
