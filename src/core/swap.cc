#include "core/swap.h"

#include <algorithm>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/parallel.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/strings.h"

namespace fieldswap {
namespace {

/// Case- and punctuation-insensitive word-by-word phrase equality.
bool SamePhrase(const std::vector<std::string>& a,
                const std::vector<std::string>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!EqualsIgnoreCase(TrimPunctuation(a[i]), TrimPunctuation(b[i]))) {
      return false;
    }
  }
  return true;
}

bool Overlap(const PhraseMatch& a, const PhraseMatch& b) {
  return a.first_token < b.first_token + b.num_tokens &&
         b.first_token < a.first_token + a.num_tokens;
}

bool OverlapsAnyAnnotation(const Document& doc, const PhraseMatch& match) {
  for (const EntitySpan& span : doc.annotations()) {
    if (match.first_token < span.end_token() &&
        span.first_token < match.first_token + match.num_tokens) {
      return true;
    }
  }
  return false;
}

/// Document::FindPhrase of each phrase of one field, in phrase order.
using FieldPhraseMatches = std::vector<std::vector<PhraseMatch>>;

FieldPhraseMatches FindFieldPhrases(const Document& doc,
                                    const std::vector<KeyPhrase>& phrases) {
  FieldPhraseMatches matches;
  matches.reserve(phrases.size());
  for (const KeyPhrase& phrase : phrases) {
    matches.push_back(doc.FindPhrase(phrase.words));
  }
  return matches;
}

/// CollectSourceMatches over already-found per-phrase matches.
std::vector<PhraseMatch> ResolveSourceMatches(
    const Document& doc, const FieldPhraseMatches& phrase_matches) {
  std::vector<PhraseMatch> all;
  for (const std::vector<PhraseMatch>& matches : phrase_matches) {
    for (const PhraseMatch& match : matches) {
      if (!OverlapsAnyAnnotation(doc, match)) all.push_back(match);
    }
  }
  // Longest matches win on overlap ("Base Salary" beats "Base").
  std::sort(all.begin(), all.end(),
            [](const PhraseMatch& a, const PhraseMatch& b) {
              if (a.num_tokens != b.num_tokens) {
                return a.num_tokens > b.num_tokens;
              }
              return a.first_token < b.first_token;
            });
  std::vector<PhraseMatch> kept;
  for (const PhraseMatch& match : all) {
    bool overlaps = false;
    for (const PhraseMatch& existing : kept) {
      if (Overlap(match, existing)) {
        overlaps = true;
        break;
      }
    }
    if (!overlaps) kept.push_back(match);
  }
  std::sort(kept.begin(), kept.end(),
            [](const PhraseMatch& a, const PhraseMatch& b) {
              return a.first_token < b.first_token;
            });
  return kept;
}

/// True when the replacement of `match` takes over its trailing ":" label
/// styling: the replaced range ends in ':' and the target's last word does
/// not already.
bool CarriesColon(const Document& doc, const PhraseMatch& match,
                  const std::vector<std::string>& target_words) {
  const std::string& old_last =
      doc.token(match.first_token + match.num_tokens - 1).text;
  const std::string& new_last = target_words.back();
  return !old_last.empty() && old_last.back() == ':' &&
         (new_last.empty() || new_last.back() != ':');
}

/// True when replacing every match with `target_words` (plus any carried
/// ':') would leave the token texts exactly as they are. Walks the spliced
/// text position by position against the original without building it, so
/// a swap whose matches grow and shrink by the same total still compares
/// as a whole text, as Document::SameTokenTexts does.
bool SwapLeavesTextUnchanged(const Document& doc,
                             const std::vector<PhraseMatch>& matches,
                             const std::vector<std::string>& target_words) {
  const int width = static_cast<int>(target_words.size());
  int spliced_count = doc.num_tokens();
  for (const PhraseMatch& match : matches) {
    spliced_count += width - match.num_tokens;
  }
  if (spliced_count != doc.num_tokens()) return false;

  int out = 0;   // position in the spliced text, compared at the same index
  int next = 0;  // next original token copied unchanged into the splice
  for (const PhraseMatch& match : matches) {
    for (; next < match.first_token; ++next, ++out) {
      if (doc.token(next).text != doc.token(out).text) return false;
    }
    const bool colon = CarriesColon(doc, match, target_words);
    for (int w = 0; w < width; ++w, ++out) {
      const std::string& word = target_words[static_cast<size_t>(w)];
      const std::string& original = doc.token(out).text;
      if (colon && w + 1 == width) {
        if (original.size() != word.size() + 1 || original.back() != ':' ||
            original.compare(0, word.size(), word) != 0) {
          return false;
        }
      } else if (original != word) {
        return false;
      }
    }
    next = match.first_token + match.num_tokens;
  }
  for (; next < doc.num_tokens(); ++next, ++out) {
    if (doc.token(next).text != doc.token(out).text) return false;
  }
  return true;
}

/// Consistency filter: the fields other than `source_field` whose own key
/// phrases (found in `all_matches`, one entry per field of `phrases` in map
/// order) occupy a replaced range. Their labels would contradict the new
/// phrase — unless the incoming phrase is also one of theirs.
std::vector<std::string> AffectedFields(
    const KeyPhraseConfig& phrases,
    const std::vector<FieldPhraseMatches>& all_matches,
    const std::string& source_field, const KeyPhrase& target_phrase,
    const std::vector<PhraseMatch>& replaced) {
  std::vector<std::string> affected_fields;
  size_t f = 0;
  for (auto it = phrases.begin(); it != phrases.end(); ++it, ++f) {
    const auto& [field, field_phrases] = *it;
    if (field == source_field) continue;
    bool target_is_theirs = false;
    for (const KeyPhrase& p : field_phrases) {
      if (SamePhrase(p.words, target_phrase.words)) target_is_theirs = true;
    }
    if (target_is_theirs) continue;
    bool affected = false;
    for (const std::vector<PhraseMatch>& matches : all_matches[f]) {
      for (const PhraseMatch& m : matches) {
        for (const PhraseMatch& r : replaced) {
          if (Overlap(m, r)) affected = true;
        }
      }
    }
    if (affected) affected_fields.push_back(field);
  }
  return affected_fields;
}

/// Builds one synthetic: every match replaced by the target phrase, the
/// affected fields' annotations dropped and the source field relabeled.
Document Materialize(const Document& doc, const std::string& source_field,
                     const std::string& target_field,
                     const KeyPhrase& target_phrase,
                     const std::vector<PhraseMatch>& matches,
                     const std::vector<std::string>& affected_fields) {
  Document synthetic = doc;
  // Replace back-to-front so earlier match indices stay valid.
  for (auto it = matches.rbegin(); it != matches.rend(); ++it) {
    std::vector<std::string> replacement = target_phrase.words;
    // Preserve trailing label punctuation (":" styling) from the replaced
    // phrase so the synthetic stays visually consistent with its template.
    if (CarriesColon(doc, *it, replacement)) replacement.back().push_back(':');
    synthetic.ReplaceTokenRange(it->first_token, it->num_tokens, replacement);
  }

  // Drop contradicted annotations of affected sibling fields, then relabel
  // every instance of the source field as the target field.
  if (!affected_fields.empty()) {
    std::vector<EntitySpan> kept;
    for (const EntitySpan& span : synthetic.annotations()) {
      if (std::find(affected_fields.begin(), affected_fields.end(),
                    span.field) == affected_fields.end()) {
        kept.push_back(span);
      }
    }
    synthetic.mutable_annotations() = std::move(kept);
  }
  for (EntitySpan& span : synthetic.mutable_annotations()) {
    if (span.field == source_field) span.field = target_field;
  }
  return synthetic;
}

/// One synthetic that a swap would emit: which document, which pair, which
/// target phrase, and its emitted index within (document, pair).
struct SwapDescriptor {
  int doc = 0;
  int pair = 0;
  int target_phrase = 0;
  int emitted = 0;
};

/// Everything found once per training document.
struct DocPlan {
  /// Every key phrase's matches, per field of the config in map order.
  std::vector<FieldPhraseMatches> phrase_matches;
  /// CollectSourceMatches per field (filled for present source fields).
  std::vector<std::vector<PhraseMatch>> source_matches;
  std::vector<SwapDescriptor> swaps;
  SwapStats stats;
};

/// A pair resolved to field positions in the config (-1 when absent).
struct ResolvedPair {
  int source = -1;
  int target = -1;
};

struct SwapPlan {
  std::vector<ResolvedPair> pairs;
  std::vector<DocPlan> docs;
  /// Every emitted swap, in the order the copy-per-swap generator emitted
  /// its synthetics: document, then pair, then target phrase.
  std::vector<SwapDescriptor> swaps;
  SwapStats stats;
};

int FieldPosition(const KeyPhraseConfig& phrases, const std::string& field) {
  auto it = phrases.find(field);
  if (it == phrases.end()) return -1;
  return static_cast<int>(std::distance(phrases.begin(), it));
}

DocPlan PlanDocument(const Document& doc, int doc_index,
                     const std::vector<const std::vector<KeyPhrase>*>& fields,
                     const std::vector<FieldPair>& pairs,
                     const std::vector<ResolvedPair>& resolved,
                     const FieldSwapOptions& options) {
  DocPlan plan;
  plan.phrase_matches.reserve(fields.size());
  for (const std::vector<KeyPhrase>* field_phrases : fields) {
    plan.phrase_matches.push_back(FindFieldPhrases(doc, *field_phrases));
  }
  plan.source_matches.resize(fields.size());
  std::vector<bool> resolved_source(fields.size(), false);

  for (size_t p = 0; p < pairs.size(); ++p) {
    const ResolvedPair& pair = resolved[p];
    if (pair.source < 0 || pair.target < 0) continue;
    if (!doc.HasField(pairs[p].source)) continue;
    const size_t source = static_cast<size_t>(pair.source);
    if (!resolved_source[source]) {
      plan.source_matches[source] =
          ResolveSourceMatches(doc, plan.phrase_matches[source]);
      resolved_source[source] = true;
    }
    const std::vector<PhraseMatch>& matches = plan.source_matches[source];
    // If no source key phrase occurs in the document, no synthetics are
    // generated for this pair (Sec. II-C).
    if (matches.empty()) continue;
    ++plan.stats.pairs_with_match;

    const std::vector<KeyPhrase>& targets =
        *fields[static_cast<size_t>(pair.target)];
    int emitted = 0;
    for (size_t t = 0; t < targets.size(); ++t) {
      FS_CHECK(!targets[t].words.empty());
      if (options.discard_unchanged &&
          SwapLeavesTextUnchanged(doc, matches, targets[t].words)) {
        ++plan.stats.discarded_unchanged;
        continue;
      }
      plan.swaps.push_back(SwapDescriptor{doc_index, static_cast<int>(p),
                                          static_cast<int>(t), emitted});
      ++emitted;
      ++plan.stats.generated;
    }
  }
  return plan;
}

/// Plans every swap of Fig. 3 step 2 without building a document. Per
/// document planning fans out over the pool; the flattened descriptor list
/// is in document order, so it is the same at any thread count.
SwapPlan PlanSwaps(const std::vector<Document>& train_docs,
                   const KeyPhraseConfig& phrases,
                   const std::vector<FieldPair>& pairs,
                   const FieldSwapOptions& options) {
  obs::CounterAdd("fieldswap.swap.input_docs",
                  static_cast<int64_t>(train_docs.size()));
  SwapPlan plan;
  std::vector<const std::vector<KeyPhrase>*> fields;
  fields.reserve(phrases.size());
  for (const auto& entry : phrases) fields.push_back(&entry.second);
  plan.pairs.reserve(pairs.size());
  for (const FieldPair& pair : pairs) {
    plan.pairs.push_back(ResolvedPair{FieldPosition(phrases, pair.source),
                                      FieldPosition(phrases, pair.target)});
  }

  plan.docs = par::ParallelMap(train_docs.size(), [&](size_t d) {
    return PlanDocument(train_docs[d], static_cast<int>(d), fields, pairs,
                        plan.pairs, options);
  });
  size_t total = 0;
  for (const DocPlan& doc : plan.docs) total += doc.swaps.size();
  plan.swaps.reserve(total);
  for (DocPlan& doc : plan.docs) {
    plan.swaps.insert(plan.swaps.end(), doc.swaps.begin(), doc.swaps.end());
    doc.swaps = {};
    plan.stats.generated += doc.stats.generated;
    plan.stats.discarded_unchanged += doc.stats.discarded_unchanged;
    plan.stats.pairs_with_match += doc.stats.pairs_with_match;
  }

  const int64_t attempted =
      plan.stats.generated + plan.stats.discarded_unchanged;
  if (attempted > 0) obs::CounterAdd("fieldswap.swap.attempted", attempted);
  if (plan.stats.discarded_unchanged > 0) {
    obs::CounterAdd("fieldswap.swap.rejected", plan.stats.discarded_unchanged);
  }
  if (plan.stats.generated > 0) {
    obs::CounterAdd("fieldswap.swap.applied", plan.stats.generated);
  }
  return plan;
}

}  // namespace

std::vector<PhraseMatch> CollectSourceMatches(
    const Document& doc, const std::vector<KeyPhrase>& source_phrases) {
  return ResolveSourceMatches(doc, FindFieldPhrases(doc, source_phrases));
}

std::optional<Document> SwapOnce(const Document& doc,
                                 const std::string& source_field,
                                 const std::string& target_field,
                                 const KeyPhrase& target_phrase,
                                 const KeyPhraseConfig& phrases,
                                 const FieldSwapOptions& options) {
  if (!doc.HasField(source_field)) return std::nullopt;
  auto source_it = phrases.find(source_field);
  if (source_it == phrases.end()) return std::nullopt;
  std::vector<PhraseMatch> matches =
      CollectSourceMatches(doc, source_it->second);
  if (matches.empty()) return std::nullopt;
  FS_CHECK(!target_phrase.words.empty());
  if (options.discard_unchanged &&
      SwapLeavesTextUnchanged(doc, matches, target_phrase.words)) {
    return std::nullopt;
  }

  std::vector<std::string> affected_fields;
  if (options.drop_affected_fields) {
    std::vector<FieldPhraseMatches> all_matches;
    for (const auto& [field, field_phrases] : phrases) {
      all_matches.push_back(field == source_field
                                ? FieldPhraseMatches()
                                : FindFieldPhrases(doc, field_phrases));
    }
    affected_fields = AffectedFields(phrases, all_matches, source_field,
                                     target_phrase, matches);
  }
  return Materialize(doc, source_field, target_field, target_phrase, matches,
                     affected_fields);
}

std::vector<Document> GenerateSyntheticDocuments(
    const std::vector<Document>& train_docs, const KeyPhraseConfig& phrases,
    const std::vector<FieldPair>& pairs, const FieldSwapOptions& options,
    SwapStats* stats) {
  FS_TRACE_SPAN("swap.generate_synthetics");
  SwapPlan plan = PlanSwaps(train_docs, phrases, pairs, options);

  // Rng::Shuffle's permutation depends only on the length, so shuffling the
  // descriptors keeps exactly the synthetics a shuffle of the built
  // documents kept, in the same order.
  if (options.max_synthetics > 0 &&
      static_cast<int>(plan.swaps.size()) > options.max_synthetics) {
    Rng rng(options.sample_seed);
    rng.Shuffle(plan.swaps);
    plan.swaps.resize(static_cast<size_t>(options.max_synthetics));
  }

  std::vector<Document> synthetics =
      par::ParallelMap(plan.swaps.size(), [&](size_t i) {
        const SwapDescriptor& swap = plan.swaps[i];
        const Document& doc = train_docs[static_cast<size_t>(swap.doc)];
        const DocPlan& doc_plan = plan.docs[static_cast<size_t>(swap.doc)];
        const FieldPair& pair = pairs[static_cast<size_t>(swap.pair)];
        const ResolvedPair& fields = plan.pairs[static_cast<size_t>(swap.pair)];
        const KeyPhrase& target_phrase =
            phrases.at(pair.target)[static_cast<size_t>(swap.target_phrase)];
        const std::vector<PhraseMatch>& matches =
            doc_plan.source_matches[static_cast<size_t>(fields.source)];
        std::vector<std::string> affected_fields;
        if (options.drop_affected_fields) {
          affected_fields =
              AffectedFields(phrases, doc_plan.phrase_matches, pair.source,
                             target_phrase, matches);
        }
        Document synthetic = Materialize(doc, pair.source, pair.target,
                                         target_phrase, matches,
                                         affected_fields);
        synthetic.set_id(doc.id() + "#swap:" + pair.source + ">" +
                         pair.target + ":" + std::to_string(swap.emitted));
        return synthetic;
      });

  if (stats != nullptr) *stats = plan.stats;
  return synthetics;
}

SwapStats CountSyntheticDocuments(const std::vector<Document>& train_docs,
                                  const KeyPhraseConfig& phrases,
                                  const std::vector<FieldPair>& pairs,
                                  const FieldSwapOptions& options) {
  FS_TRACE_SPAN("swap.count_synthetics");
  return PlanSwaps(train_docs, phrases, pairs, options).stats;
}

}  // namespace fieldswap
