#ifndef FIELDSWAP_CORE_PIPELINE_H_
#define FIELDSWAP_CORE_PIPELINE_H_

#include <vector>

#include "core/field_pairs.h"
#include "core/human_expert.h"
#include "core/key_phrases.h"
#include "core/swap.h"
#include "model/candidate_model.h"
#include "synth/spec.h"

namespace fieldswap {

/// Options for the end-to-end FieldSwap pipeline (Fig. 3).
struct FieldSwapPipelineOptions {
  MappingStrategy strategy = MappingStrategy::kTypeToType;
  KeyPhraseInferenceOptions inference;
  FieldSwapOptions swap;
};

/// Result of one augmentation run.
struct AugmentationResult {
  KeyPhraseConfig phrases;
  std::vector<FieldPair> pairs;
  std::vector<Document> synthetics;
  SwapStats stats;
};

/// Runs the full pipeline: (1) obtain key phrases — inferred with the
/// out-of-domain `candidate_model` for automatic strategies, or taken from
/// the expert configuration for kHumanExpert; (2) build field pairs per the
/// strategy; (3) generate synthetic documents. The training set for the
/// extraction model is then originals + result.synthetics (Fig. 3 step 3).
///
/// `candidate_model` may be null when strategy == kHumanExpert.
AugmentationResult RunFieldSwap(const std::vector<Document>& train_docs,
                                const DomainSpec& spec,
                                const CandidateScoringModel* candidate_model,
                                const FieldSwapPipelineOptions& options);

/// RunFieldSwap's SwapStats without building any synthetic document: the
/// same key phrases and pairs, then CountSyntheticDocuments. `generated`
/// is the uncapped count (Table III).
SwapStats CountFieldSwapSynthetics(const std::vector<Document>& train_docs,
                                   const DomainSpec& spec,
                                   const CandidateScoringModel* candidate_model,
                                   const FieldSwapPipelineOptions& options);

}  // namespace fieldswap

#endif  // FIELDSWAP_CORE_PIPELINE_H_
