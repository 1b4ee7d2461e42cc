#ifndef FIELDSWAP_DOC_DOCUMENT_H_
#define FIELDSWAP_DOC_DOCUMENT_H_

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "doc/bbox.h"
#include "doc/schema.h"

namespace fieldswap {

/// A single OCR word: its text and spatial position on the page.
struct Token {
  std::string text;
  BBox box;

  /// Index of the OCR line containing this token; -1 before line detection
  /// has run (see ocr/line_detector.h).
  int line = -1;

  friend bool operator==(const Token& a, const Token& b) = default;
};

/// An OCR line: a maximal group of tokens sharing a y-band and separated
/// from other groups by visual gaps (Sec. II-A1).
struct Line {
  std::vector<int> token_indices;  // in reading order (left to right)
  BBox box;
};

/// A labeled field instance: the ground-truth (or predicted) value span of
/// a schema field, as a run of consecutive token indices.
struct EntitySpan {
  std::string field;
  int first_token = 0;  // inclusive
  int num_tokens = 0;

  int end_token() const { return first_token + num_tokens; }

  bool Covers(int token_index) const {
    return token_index >= first_token && token_index < end_token();
  }

  friend bool operator==(const EntitySpan& a, const EntitySpan& b) = default;
};

/// A contiguous occurrence of a word sequence inside one OCR line.
struct PhraseMatch {
  int first_token = 0;  // inclusive
  int num_tokens = 0;
  int line = -1;
};

/// Exact top-k under the (off-axis distance, index) order: writes to `out`
/// the indices j of the min(k, n) points (xs[j], ys[j]) nearest to (cx, cy)
/// by OffAxisDistance, nearest first, equal distances by lower index —
/// exactly the first k entries of sorting every (distance, j) pair, with
/// no sort and no allocation. Indices listed in `exclude` are skipped.
/// `out` and `distance_scratch` need room for k entries. Returns the count
/// written. Distances must not be NaN (document readers reject the
/// non-finite geometry that would produce them).
int NearestOffAxis(double cx, double cy, std::span<const double> xs,
                   std::span<const double> ys, std::span<const int> exclude,
                   int k, double* distance_scratch, int* out);

/// Why a page of this size cannot come from a real page, or "" when it
/// can: width and height must be finite and positive. Every document
/// reader runs this check, so zero-size or infinite pages never reach the
/// features (which divide by the page size).
std::string_view PageGeometryError(double width, double height);

/// Why a token box cannot lie on a page, or "" when it can: every
/// coordinate must be finite (an infinite coordinate turns off-axis
/// distances into NaN). Shared by every document reader, like
/// PageGeometryError.
std::string_view BoxGeometryError(const BBox& box);

/// A visually rich document: page geometry, OCR tokens and lines, and
/// field annotations. This is the unit FieldSwap operates on — synthetic
/// documents are produced by editing tokens and relabeling spans in place.
class Document {
 public:
  Document() = default;
  Document(std::string id, std::string domain, double width, double height)
      : id_(std::move(id)),
        domain_(std::move(domain)),
        width_(width),
        height_(height) {}

  const std::string& id() const { return id_; }
  const std::string& domain() const { return domain_; }
  double width() const { return width_; }
  double height() const { return height_; }

  void set_id(std::string id) { id_ = std::move(id); }

  const std::vector<Token>& tokens() const { return tokens_; }
  std::vector<Token>& mutable_tokens() { return tokens_; }
  const Token& token(int i) const { return tokens_[static_cast<size_t>(i)]; }
  int num_tokens() const { return static_cast<int>(tokens_.size()); }

  const std::vector<Line>& lines() const { return lines_; }
  void set_lines(std::vector<Line> lines);

  const std::vector<EntitySpan>& annotations() const { return annotations_; }
  std::vector<EntitySpan>& mutable_annotations() { return annotations_; }

  /// Appends a token; returns its index.
  int AddToken(std::string text, const BBox& box);

  /// Appends a ground-truth annotation.
  void AddAnnotation(EntitySpan span);

  /// Space-joined text of a token range.
  std::string TextOfRange(int first_token, int num_tokens) const;

  /// Space-joined text of an annotation span.
  std::string TextOf(const EntitySpan& span) const {
    return TextOfRange(span.first_token, span.num_tokens);
  }

  /// Union bounding box of a token range (empty box for num_tokens == 0).
  BBox BoxOfRange(int first_token, int num_tokens) const;

  /// All annotations for a given field name.
  std::vector<EntitySpan> AnnotationsFor(std::string_view field) const;

  /// True if the document has at least one annotation for `field`.
  bool HasField(std::string_view field) const;

  /// Indices of the `t` tokens nearest to `center` by off-axis distance
  /// between bounding-box centers (Sec. II-A2), excluding any token indices
  /// listed in `exclude`. Results are sorted by increasing distance, ties
  /// by lower index (NearestOffAxis).
  std::vector<int> NeighborIndices(const BBox& center, int t,
                                   const std::vector<int>& exclude = {}) const;

  /// Finds every occurrence of `words` as consecutive tokens within a single
  /// OCR line, comparing token text case-insensitively. Requires line
  /// detection to have run (tokens have line ids).
  std::vector<PhraseMatch> FindPhrase(
      const std::vector<std::string>& words) const;

  /// Replaces the token range [first_token, first_token + old_count) with
  /// `new_texts`. New tokens inherit the replaced range's total bounding box,
  /// split proportionally to text length, and the replaced range's line id.
  /// Annotation and line indices are remapped. Annotations overlapping the
  /// replaced range are dropped (FieldSwap never replaces value tokens, so
  /// this only triggers defensively).
  void ReplaceTokenRange(int first_token, int old_count,
                         const std::vector<std::string>& new_texts);

  /// True iff all token texts equal `other`'s (geometry ignored). Used to
  /// implement the paper's discard-unchanged-synthetics rule (Sec. II-C).
  bool SameTokenTexts(const Document& other) const;

  std::string DebugString() const;

 private:
  void RemapAfterSplice(int first_token, int old_count, int new_count);

  std::string id_;
  std::string domain_;
  double width_ = 0;
  double height_ = 0;
  std::vector<Token> tokens_;
  std::vector<Line> lines_;
  std::vector<EntitySpan> annotations_;
};

}  // namespace fieldswap

#endif  // FIELDSWAP_DOC_DOCUMENT_H_
