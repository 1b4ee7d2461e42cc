#ifndef FIELDSWAP_API_FIELDSWAP_API_H_
#define FIELDSWAP_API_FIELDSWAP_API_H_

/// The supported public surface of the FieldSwap library.
///
/// Code outside src/ — examples, benches, tools, downstream users — should
/// include this header (or serve/, obs/, util/ headers) and nothing else;
/// fslint's layering rule enforces that machine-side (tools/layers.txt).
/// Everything re-exported here is covered by the usual compatibility
/// expectations; headers not reachable from this file are internal and may
/// change without notice (see api/internals.h for the escape hatch).
///
/// The surface is two things:
///   1. Curated re-exports of the stable subsystem headers: documents and
///      serialization, synthetic domains/corpora, the FieldSwap pipeline,
///      training and evaluation, the serving subsystem, and deterministic
///      thread control.
///   2. Thin convenience wrappers in fieldswap::api for the common
///      lifecycle: NewModel -> Train (or LoadModel) -> Extract / Evaluate /
///      Serve, plus Augment for standalone FieldSwap augmentation, and the
///      corpus-format surface: OpenCorpus / WriteCorpus / ListFormats /
///      GenerateCorpusStream (ISSUE 10).
///
/// Corpus compatibility stance: the streaming doc::CorpusReader overloads
/// of Train / Evaluate are the cores; the std::vector<Document> overloads
/// are documented thin adapters over them and will stay source- and
/// behavior-compatible — a vector call and a reader call over the same
/// documents produce bit-identical results at any FIELDSWAP_THREADS.
/// Corpus files written by WriteCorpus are readable by every later library
/// version of the same major line: the native container embeds a format
/// version readers check, and JSONL is plain DocumentToJson lines.

#include <memory>
#include <string>
#include <vector>

#include "core/key_phrases.h"
#include "core/pipeline.h"
#include "core/swap.h"
#include "doc/corpus.h"
#include "doc/serialize.h"
#include "eval/experiment.h"
#include "eval/golden.h"
#include "eval/metrics.h"
#include "model/candidate_model.h"
#include "model/options.h"
#include "model/trainer.h"
#include "nn/kernels.h"
#include "ocr/line_detector.h"
#include "par/parallel.h"
#include "serve/flat_snapshot.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/tenant_server.h"
#include "synth/domains.h"
#include "synth/generator.h"

namespace fieldswap {
namespace api {

/// Library version, bumped when the supported surface changes shape.
const char* Version();

/// Fresh untrained model for a built-in synthetic domain: "fara",
/// "fcc_forms", "brokerage_statements", "earnings", "loan_payments" or
/// "invoices". Aborts on an unknown domain (SpecByName lists the valid
/// names in its message).
SequenceLabelingModel NewModel(const std::string& domain,
                               const SequenceModelConfig& config = {});

/// Writes a model's parameters to a checkpoint file; false on I/O failure.
bool SaveModel(const std::string& checkpoint_path,
               const SequenceLabelingModel& model);

/// Loads a checkpoint written by SaveModel into `model` (which must have
/// been built with the same config and domain). False when the file is
/// unreadable or the parameter shapes do not match.
bool LoadModel(const std::string& checkpoint_path,
               SequenceLabelingModel& model);

/// Predicted spans for one document.
std::vector<EntitySpan> Extract(const SequenceLabelingModel& model,
                                const Document& doc);

/// Batched extraction on the shared deterministic pool. Results are
/// bit-identical to calling Extract per document, at any FIELDSWAP_THREADS.
std::vector<std::vector<EntitySpan>> ExtractBatch(
    const SequenceLabelingModel& model, const std::vector<Document>& docs);

/// Trains the model on `originals` plus optional FieldSwap `synthetics`.
TrainResult Train(SequenceLabelingModel& model,
                  const std::vector<Document>& originals,
                  const std::vector<Document>& synthetics = {},
                  const TrainOptions& options = {});

/// Streaming overload: trains from corpus readers (file-backed, synthetic,
/// or vector views) without materializing the corpora. Bit-identical to
/// the vector overload over the same documents.
TrainResult Train(SequenceLabelingModel& model,
                  const doc::CorpusReader& originals,
                  const doc::CorpusReader* synthetics = nullptr,
                  const TrainOptions& options = {});

/// Span-level precision/recall/F1 against a labeled corpus.
EvalResult Evaluate(const SequenceLabelingModel& model,
                    const std::vector<Document>& docs);

/// Streaming overload: evaluates over a corpus reader in bounded memory
/// (one block of documents at a time). Bit-identical to the vector
/// overload over the same documents.
EvalResult Evaluate(const SequenceLabelingModel& model,
                    const doc::CorpusReader& docs);

/// Runs the FieldSwap augmentation pipeline over a training corpus.
AugmentationResult Augment(const std::vector<Document>& originals,
                           const DomainSpec& spec,
                           const FieldSwapPipelineOptions& options = {},
                           const CandidateScoringModel* candidate_model =
                               nullptr);

/// Streaming overload: reads `originals` through a corpus reader. The
/// pipeline's swap stage needs the training pool resident (it pairs
/// documents across the pool), so this materializes internally; the
/// adapter exists so callers can feed any corpus format to augmentation
/// without touching LoadCorpusJsonl themselves.
AugmentationResult Augment(const doc::CorpusReader& originals,
                           const DomainSpec& spec,
                           const FieldSwapPipelineOptions& options = {},
                           const CandidateScoringModel* candidate_model =
                               nullptr);

/// Opens a corpus file through the format-driver registry — native binary
/// (.fsc), JSONL (.jsonl), or a synthetic generator spec (.synth). Empty
/// `format` auto-identifies by magic bytes, then extension. Null with the
/// reason (including the registered format names) in `*status`.
std::unique_ptr<doc::CorpusReader> OpenCorpus(const std::string& path,
                                              const std::string& format = "",
                                              doc::CorpusStatus* status =
                                                  nullptr);

/// Creates a streaming corpus writer. Empty `format` picks the writable
/// driver whose extension matches `path`, defaulting to native. The file
/// lands atomically (temp + rename) at Finish().
std::unique_ptr<doc::CorpusWriter> WriteCorpus(const std::string& path,
                                               const std::string& format = "",
                                               doc::CorpusStatus* status =
                                                   nullptr);

/// Metadata for every registered corpus format, registration order.
std::vector<doc::FormatInfo> ListFormats();

/// A lazy reader over the synthetic generator: documents materialize per
/// Get, so corpus size costs ~24 bytes/document up front. Reading index i
/// yields exactly GenerateCorpus(SpecByName(domain), count, seed,
/// id_prefix)[i]. Aborts on an unknown domain (SpecByName lists the valid
/// names in its message).
std::unique_ptr<doc::CorpusReader> GenerateCorpusStream(
    const std::string& domain, int count, uint64_t seed,
    const std::string& id_prefix = "doc");

/// Wraps a trained model into a hot-swappable snapshot and returns a
/// batched ExtractionServer: a default-tenant facade over the engine that
/// ServeTenants returns, on a private one-tenant registry (serve/server.h).
std::unique_ptr<serve::ExtractionServer> Serve(
    SequenceLabelingModel model, serve::ServeOptions options = {},
    std::string version = "");

/// Fresh empty tenant registry (multi-tenant serving, ISSUE 8).
std::shared_ptr<serve::ModelRegistry> NewRegistry();

/// Snapshots a trained model (int8 plan included when `with_int8_plan`)
/// and publishes it as the tenant's new active version. Returns the
/// assigned monotonic version number.
uint64_t PublishModel(serve::ModelRegistry& registry,
                      const std::string& tenant, SequenceLabelingModel model,
                      std::string version = "", bool with_int8_plan = false);

/// Multi-tenant front end over a registry: per-tenant quotas,
/// deficit-round-robin fair batching, cross-tenant batch packing. See
/// serve/tenant_server.h for the determinism contract.
std::unique_ptr<serve::MultiTenantServer> ServeTenants(
    std::shared_ptr<serve::ModelRegistry> registry,
    serve::ServeOptions options = {});

/// Writes a snapshot to the mmap-able flat format; false with a reason in
/// `*error` on failure.
bool SaveFlatSnapshot(const std::string& path,
                      const serve::ModelSnapshot& snapshot,
                      std::string* error = nullptr);

/// Maps a flat snapshot back with zero weight copies (weights are views
/// into the mapping); null with a reason in `*error` on failure.
std::shared_ptr<const serve::ModelSnapshot> LoadFlatSnapshot(
    const std::string& path, std::string* error = nullptr);

}  // namespace api
}  // namespace fieldswap

#endif  // FIELDSWAP_API_FIELDSWAP_API_H_
