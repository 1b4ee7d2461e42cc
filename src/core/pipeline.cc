#include "core/pipeline.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace fieldswap {

namespace {

/// Steps (1) and (2) of Fig. 3: the key phrases and the field pairs.
void ChoosePhrasesAndPairs(const std::vector<Document>& train_docs,
                           const DomainSpec& spec,
                           const CandidateScoringModel* candidate_model,
                           const FieldSwapPipelineOptions& options,
                           AugmentationResult& result) {
  obs::CounterAdd("fieldswap.pipeline.runs");
  obs::CounterAdd("fieldswap.pipeline.input_docs",
                  static_cast<int64_t>(train_docs.size()));
  if (options.strategy == MappingStrategy::kHumanExpert) {
    FS_TRACE_SPAN("pipeline.expert_config");
    HumanExpertConfig expert = MakeHumanExpertConfig(spec);
    result.phrases = std::move(expert.phrases);
    result.pairs = std::move(expert.pairs);
  } else {
    FS_CHECK(candidate_model != nullptr)
        << "automatic strategies need the pre-trained candidate model";
    {
      FS_TRACE_SPAN("pipeline.keyphrase_inference");
      result.phrases = InferKeyPhrases(*candidate_model, train_docs,
                                       spec.Schema(), options.inference);
    }
    {
      FS_TRACE_SPAN("pipeline.pairing");
      result.pairs =
          BuildFieldPairs(spec.Schema(), options.strategy, result.phrases);
    }
  }
  obs::CounterAdd("fieldswap.pipeline.field_pairs",
                  static_cast<int64_t>(result.pairs.size()));
}

}  // namespace

AugmentationResult RunFieldSwap(const std::vector<Document>& train_docs,
                                const DomainSpec& spec,
                                const CandidateScoringModel* candidate_model,
                                const FieldSwapPipelineOptions& options) {
  FS_TRACE_SPAN("pipeline.run_fieldswap");
  AugmentationResult result;
  ChoosePhrasesAndPairs(train_docs, spec, candidate_model, options, result);
  {
    FS_TRACE_SPAN("pipeline.swap");
    result.synthetics = GenerateSyntheticDocuments(
        train_docs, result.phrases, result.pairs, options.swap, &result.stats);
  }
  obs::CounterAdd("fieldswap.pipeline.synthetic_docs",
                  static_cast<int64_t>(result.synthetics.size()));
  return result;
}

SwapStats CountFieldSwapSynthetics(const std::vector<Document>& train_docs,
                                   const DomainSpec& spec,
                                   const CandidateScoringModel* candidate_model,
                                   const FieldSwapPipelineOptions& options) {
  FS_TRACE_SPAN("pipeline.count_fieldswap");
  AugmentationResult result;
  ChoosePhrasesAndPairs(train_docs, spec, candidate_model, options, result);
  return CountSyntheticDocuments(train_docs, result.phrases, result.pairs,
                                 options.swap);
}

}  // namespace fieldswap
