#ifndef FIELDSWAP_CORE_SWAP_H_
#define FIELDSWAP_CORE_SWAP_H_

#include <cstdint>
#include <vector>

#include "core/field_pairs.h"
#include "core/key_phrases.h"
#include "doc/document.h"

namespace fieldswap {

/// Knobs of synthetic-document generation (Sec. II-C). The defaults match
/// the paper's simple implementation; the ablation flags let benches test
/// the design choices it discusses.
struct FieldSwapOptions {
  /// Discard a synthetic whose token texts are identical to the original
  /// (the paper's protection against same-key-phrase contradictions).
  bool discard_unchanged = true;

  /// Consistency filter (an extension past the paper's simplest
  /// implementation, which it poses as an open question in Sec. II-C):
  /// when a replaced key phrase also served another field F (e.g. the
  /// year_to_date sibling of a swapped current.* row, which shares the row
  /// label), drop F's now-contradictory annotations from the synthetic —
  /// unless the new phrase is also a valid key phrase of F (field-to-field
  /// variant swaps stay fully labeled). Without this filter every table
  /// swap emits one systematically mislabeled sibling span; small
  /// from-scratch backbones (unlike the paper's 30k-doc-pretrained model)
  /// are measurably hurt by that noise. Benchmarked in ablation_knobs.
  bool drop_affected_fields = true;

  /// If > 0, deterministically subsample the generated synthetics down to
  /// this many documents (wall-clock control for training; counting
  /// benches leave it 0 = unlimited).
  int max_synthetics = 0;
  uint64_t sample_seed = 23;
};

/// Counters describing one augmentation run (feeds Table III).
struct SwapStats {
  int64_t generated = 0;
  int64_t discarded_unchanged = 0;
  int64_t pairs_with_match = 0;
};

/// All matches of any source key phrase in `doc`, returned in token order.
/// Overlapping matches resolve longest-match-wins ("Base Salary" beats
/// "Base"; equal lengths tie-break on the earlier start), and matches that
/// overlap an annotated value span are excluded (key phrases are labels;
/// values are never replaced).
std::vector<PhraseMatch> CollectSourceMatches(
    const Document& doc, const std::vector<KeyPhrase>& source_phrases);

/// Generates one synthetic document: replaces every occurrence of any key
/// phrase of `source_field` (per `phrases`) in `doc` with `target_phrase`,
/// and relabels all instances of `source_field` as `target_field`. Returns
/// std::nullopt if no phrase matched, or if the result is textually
/// identical to the original and `discard_unchanged` is set.
std::optional<Document> SwapOnce(const Document& doc,
                                 const std::string& source_field,
                                 const std::string& target_field,
                                 const KeyPhrase& target_phrase,
                                 const KeyPhraseConfig& phrases,
                                 const FieldSwapOptions& options);

/// Full FieldSwap generation (Fig. 3 step 2): for every training document
/// and every source-to-target pair whose source field is present with a
/// matching key phrase, emit one synthetic document per target key phrase.
///
/// Plan, then materialize: each document's key phrase matches are found
/// once, every swap is enumerated as a small descriptor (and the
/// discard-unchanged rule decided on the words, without a copy), the
/// descriptors are subsampled to `max_synthetics`, and only the kept ones
/// are built. Ids, order and content are exactly those of building every
/// swap with SwapOnce and shuffling the documents with the same Rng
/// (pinned by tests/core_test.cc's oracle), at any thread count.
std::vector<Document> GenerateSyntheticDocuments(
    const std::vector<Document>& train_docs, const KeyPhraseConfig& phrases,
    const std::vector<FieldPair>& pairs, const FieldSwapOptions& options,
    SwapStats* stats = nullptr);

/// The SwapStats GenerateSyntheticDocuments would report, from the plan
/// alone: no synthetic document is built (Table III counts).
SwapStats CountSyntheticDocuments(const std::vector<Document>& train_docs,
                                  const KeyPhraseConfig& phrases,
                                  const std::vector<FieldPair>& pairs,
                                  const FieldSwapOptions& options);

}  // namespace fieldswap

#endif  // FIELDSWAP_CORE_SWAP_H_
