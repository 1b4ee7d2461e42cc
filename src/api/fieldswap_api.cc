#include "api/fieldswap_api.h"

#include <utility>

#include "nn/serialize.h"
#include "synth/corpus_stream.h"

namespace fieldswap {
namespace api {
namespace {

/// Every corpus entry point funnels through here so the synthetic driver —
/// which doc/ cannot register itself without inverting the layering — is
/// in the registry before any identify/open/list call.
void EnsureCorpusFormats() { synth::RegisterSyntheticCorpusDriver(); }

}  // namespace

const char* Version() { return "fieldswap 1.2"; }

SequenceLabelingModel NewModel(const std::string& domain,
                               const SequenceModelConfig& config) {
  DomainSpec spec = SpecByName(domain);
  return SequenceLabelingModel(config, spec.Schema());
}

bool SaveModel(const std::string& checkpoint_path,
               const SequenceLabelingModel& model) {
  return SaveCheckpoint(checkpoint_path, model.Params());
}

bool LoadModel(const std::string& checkpoint_path,
               SequenceLabelingModel& model) {
  return LoadCheckpoint(checkpoint_path, model.Params());
}

std::vector<EntitySpan> Extract(const SequenceLabelingModel& model,
                                const Document& doc) {
  return model.Predict(doc);
}

std::vector<std::vector<EntitySpan>> ExtractBatch(
    const SequenceLabelingModel& model, const std::vector<Document>& docs) {
  return par::ParallelMap(docs.size(), [&](size_t i) {
    return model.Predict(docs[i]);
  });
}

TrainResult Train(SequenceLabelingModel& model,
                  const std::vector<Document>& originals,
                  const std::vector<Document>& synthetics,
                  const TrainOptions& options) {
  return TrainSequenceModel(model, originals, synthetics, options);
}

EvalResult Evaluate(const SequenceLabelingModel& model,
                    const std::vector<Document>& docs) {
  return EvaluateModel(model, docs);
}

TrainResult Train(SequenceLabelingModel& model,
                  const doc::CorpusReader& originals,
                  const doc::CorpusReader* synthetics,
                  const TrainOptions& options) {
  return TrainSequenceModel(model, originals, synthetics, options);
}

EvalResult Evaluate(const SequenceLabelingModel& model,
                    const doc::CorpusReader& docs) {
  return EvaluateModel(model, docs);
}

AugmentationResult Augment(const std::vector<Document>& originals,
                           const DomainSpec& spec,
                           const FieldSwapPipelineOptions& options,
                           const CandidateScoringModel* candidate_model) {
  return RunFieldSwap(originals, spec, candidate_model, options);
}

AugmentationResult Augment(const doc::CorpusReader& originals,
                           const DomainSpec& spec,
                           const FieldSwapPipelineOptions& options,
                           const CandidateScoringModel* candidate_model) {
  return RunFieldSwap(doc::ReadAllDocuments(originals), spec, candidate_model,
                      options);
}

std::unique_ptr<doc::CorpusReader> OpenCorpus(const std::string& path,
                                              const std::string& format,
                                              doc::CorpusStatus* status) {
  EnsureCorpusFormats();
  return doc::OpenCorpus(path, format, status);
}

std::unique_ptr<doc::CorpusWriter> WriteCorpus(const std::string& path,
                                               const std::string& format,
                                               doc::CorpusStatus* status) {
  EnsureCorpusFormats();
  return doc::CreateCorpus(path, format, status);
}

std::vector<doc::FormatInfo> ListFormats() {
  EnsureCorpusFormats();
  return doc::FormatDriverRegistry::Global().ListFormats();
}

std::unique_ptr<doc::CorpusReader> GenerateCorpusStream(
    const std::string& domain, int count, uint64_t seed,
    const std::string& id_prefix) {
  return synth::MakeSyntheticCorpusReader(SpecByName(domain), count, seed,
                                          id_prefix);
}

std::unique_ptr<serve::ExtractionServer> Serve(SequenceLabelingModel model,
                                               serve::ServeOptions options,
                                               std::string version) {
  // int8 serving needs the quantized plan; building it unconditionally
  // would tax every float-serving caller, so it follows the flag.
  const bool with_int8_plan = options.int8_inference;
  return std::make_unique<serve::ExtractionServer>(
      serve::MakeSnapshot(std::move(model), std::move(version),
                          with_int8_plan),
      std::move(options));
}

std::shared_ptr<serve::ModelRegistry> NewRegistry() {
  return std::make_shared<serve::ModelRegistry>();
}

uint64_t PublishModel(serve::ModelRegistry& registry,
                      const std::string& tenant, SequenceLabelingModel model,
                      std::string version, bool with_int8_plan) {
  return registry.Publish(
      tenant, serve::MakeSnapshot(std::move(model), std::move(version),
                                  with_int8_plan));
}

std::unique_ptr<serve::MultiTenantServer> ServeTenants(
    std::shared_ptr<serve::ModelRegistry> registry,
    serve::ServeOptions options) {
  return std::make_unique<serve::MultiTenantServer>(std::move(registry),
                                                    std::move(options));
}

bool SaveFlatSnapshot(const std::string& path,
                      const serve::ModelSnapshot& snapshot,
                      std::string* error) {
  return serve::WriteFlatSnapshot(path, snapshot, error);
}

std::shared_ptr<const serve::ModelSnapshot> LoadFlatSnapshot(
    const std::string& path, std::string* error) {
  return serve::LoadFlatSnapshot(path, error);
}

}  // namespace api
}  // namespace fieldswap
