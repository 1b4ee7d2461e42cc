#include "doc/document.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.h"
#include "util/strings.h"

namespace fieldswap {

void Document::set_lines(std::vector<Line> lines) {
  lines_ = std::move(lines);
  for (size_t li = 0; li < lines_.size(); ++li) {
    for (int ti : lines_[li].token_indices) {
      FS_CHECK_GE(ti, 0);
      FS_CHECK_LT(ti, num_tokens());
      tokens_[static_cast<size_t>(ti)].line = static_cast<int>(li);
    }
  }
}

int Document::AddToken(std::string text, const BBox& box) {
  tokens_.push_back(Token{std::move(text), box, /*line=*/-1});
  return num_tokens() - 1;
}

void Document::AddAnnotation(EntitySpan span) {
  FS_CHECK_GE(span.first_token, 0);
  FS_CHECK_LE(span.end_token(), num_tokens());
  FS_CHECK_GT(span.num_tokens, 0);
  annotations_.push_back(std::move(span));
}

std::string Document::TextOfRange(int first_token, int num) const {
  std::string out;
  for (int i = first_token; i < first_token + num; ++i) {
    if (i > first_token) out.push_back(' ');
    out += token(i).text;
  }
  return out;
}

BBox Document::BoxOfRange(int first_token, int num) const {
  if (num <= 0) return BBox{};
  BBox box = token(first_token).box;
  for (int i = first_token + 1; i < first_token + num; ++i) {
    box = box.Union(token(i).box);
  }
  return box;
}

std::vector<EntitySpan> Document::AnnotationsFor(std::string_view field) const {
  std::vector<EntitySpan> result;
  for (const EntitySpan& span : annotations_) {
    if (span.field == field) result.push_back(span);
  }
  return result;
}

bool Document::HasField(std::string_view field) const {
  for (const EntitySpan& span : annotations_) {
    if (span.field == field) return true;
  }
  return false;
}

int NearestOffAxis(double cx, double cy, std::span<const double> xs,
                   std::span<const double> ys, std::span<const int> exclude,
                   int k, double* distance_scratch, int* out) {
  if (k <= 0) return 0;
  const int n = static_cast<int>(xs.size());
  double* dist = distance_scratch;
  int kept = 0;
  for (int j = 0; j < n; ++j) {
    const double d = OffAxisDistance(cx, cy, xs[static_cast<size_t>(j)],
                                     ys[static_cast<size_t>(j)]);
    // Candidates arrive in increasing index order, so (d, j) ranks after
    // every kept entry of equal distance: only a strictly smaller distance
    // moves it up, and only one strictly below the worst kept enters a
    // full list.
    if (kept == k && !(d < dist[k - 1])) continue;
    if (std::find(exclude.begin(), exclude.end(), j) != exclude.end()) {
      continue;
    }
    int pos = kept < k ? kept++ : k - 1;
    for (; pos > 0 && d < dist[pos - 1]; --pos) {
      dist[pos] = dist[pos - 1];
      out[pos] = out[pos - 1];
    }
    dist[pos] = d;
    out[pos] = j;
  }
  return kept;
}

std::string_view PageGeometryError(double width, double height) {
  // Written so NaN fails too: every comparison with NaN is false.
  if (!(std::isfinite(width) && width > 0)) {
    return "page width must be finite and positive";
  }
  if (!(std::isfinite(height) && height > 0)) {
    return "page height must be finite and positive";
  }
  return {};
}

std::string_view BoxGeometryError(const BBox& box) {
  if (!(std::isfinite(box.x_min) && std::isfinite(box.y_min) &&
        std::isfinite(box.x_max) && std::isfinite(box.y_max))) {
    return "box coordinates must be finite";
  }
  return {};
}

std::vector<int> Document::NeighborIndices(
    const BBox& center, int t, const std::vector<int>& exclude) const {
  const size_t n = tokens_.size();
  std::vector<double> xs(n), ys(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = tokens_[i].box.CenterX();
    ys[i] = tokens_[i].box.CenterY();
  }
  const size_t k = std::min(n, static_cast<size_t>(std::max(t, 0)));
  std::vector<double> distances(k);
  std::vector<int> result(k);
  result.resize(static_cast<size_t>(NearestOffAxis(
      center.CenterX(), center.CenterY(), xs, ys, exclude,
      static_cast<int>(k), distances.data(), result.data())));
  return result;
}

std::vector<PhraseMatch> Document::FindPhrase(
    const std::vector<std::string>& words) const {
  std::vector<PhraseMatch> matches;
  if (words.empty()) return matches;
  int n = static_cast<int>(words.size());
  for (int start = 0; start + n <= num_tokens(); ++start) {
    bool ok = true;
    int line_id = token(start).line;
    for (int j = 0; j < n; ++j) {
      const Token& tok = token(start + j);
      // Punctuation-tolerant match: template styling may attach ":" or
      // parentheses to label tokens, which inferred key phrases have had
      // stripped (Sec. II-A3).
      if (tok.line != line_id ||
          !EqualsIgnoreCase(TrimPunctuation(tok.text),
                            TrimPunctuation(words[j]))) {
        ok = false;
        break;
      }
    }
    // Tokens must also be consecutive within the line, not merely share it.
    if (ok && line_id >= 0) {
      const Line& line = lines_[static_cast<size_t>(line_id)];
      auto it = std::find(line.token_indices.begin(), line.token_indices.end(),
                          start);
      if (it == line.token_indices.end()) {
        ok = false;
      } else {
        for (int j = 1; j < n && ok; ++j) {
          ++it;
          if (it == line.token_indices.end() || *it != start + j) ok = false;
        }
      }
    }
    if (ok) matches.push_back(PhraseMatch{start, n, line_id});
  }
  return matches;
}

void Document::RemapAfterSplice(int first_token, int old_count,
                                int new_count) {
  int delta = new_count - old_count;
  int old_end = first_token + old_count;

  // Remap annotations. Spans entirely before are untouched; spans entirely
  // after shift by delta; overlapping spans are dropped.
  std::vector<EntitySpan> kept;
  kept.reserve(annotations_.size());
  for (EntitySpan span : annotations_) {
    if (span.end_token() <= first_token) {
      kept.push_back(span);
    } else if (span.first_token >= old_end) {
      span.first_token += delta;
      kept.push_back(span);
    }
    // else: overlaps the replaced range; drop.
  }
  annotations_ = std::move(kept);

  // Remap line token lists: indices in the replaced range become the new
  // range; later indices shift.
  for (Line& line : lines_) {
    std::vector<int> remapped;
    remapped.reserve(line.token_indices.size());
    bool inserted_new = false;
    for (int ti : line.token_indices) {
      if (ti < first_token) {
        remapped.push_back(ti);
      } else if (ti < old_end) {
        if (!inserted_new) {
          for (int j = 0; j < new_count; ++j) {
            remapped.push_back(first_token + j);
          }
          inserted_new = true;
        }
      } else {
        remapped.push_back(ti + delta);
      }
    }
    line.token_indices = std::move(remapped);
  }
}

void Document::ReplaceTokenRange(int first_token, int old_count,
                                 const std::vector<std::string>& new_texts) {
  FS_CHECK_GE(first_token, 0);
  FS_CHECK_GT(old_count, 0);
  FS_CHECK_LE(first_token + old_count, num_tokens());
  FS_CHECK(!new_texts.empty());

  BBox total = BoxOfRange(first_token, old_count);
  int line_id = token(first_token).line;

  // Build replacement tokens: split the old range's box horizontally in
  // proportion to each new token's text length, with a fixed inter-token gap.
  size_t total_chars = 0;
  for (const std::string& text : new_texts) total_chars += text.size();
  if (total_chars == 0) total_chars = 1;
  const double gap = std::min(4.0, total.Width() * 0.02);
  double usable =
      std::max(1.0, total.Width() - gap * static_cast<double>(new_texts.size() - 1));
  std::vector<Token> replacement;
  replacement.reserve(new_texts.size());
  double x = total.x_min;
  for (const std::string& text : new_texts) {
    double w = usable * static_cast<double>(std::max<size_t>(text.size(), 1)) /
               static_cast<double>(total_chars);
    Token tok;
    tok.text = text;
    tok.box = BBox{x, total.y_min, x + w, total.y_max};
    tok.line = line_id;
    replacement.push_back(std::move(tok));
    x += w + gap;
  }

  int new_count = static_cast<int>(replacement.size());
  RemapAfterSplice(first_token, old_count, new_count);

  auto begin = tokens_.begin() + first_token;
  tokens_.erase(begin, begin + old_count);
  tokens_.insert(tokens_.begin() + first_token,
                 std::make_move_iterator(replacement.begin()),
                 std::make_move_iterator(replacement.end()));
}

bool Document::SameTokenTexts(const Document& other) const {
  if (num_tokens() != other.num_tokens()) return false;
  for (int i = 0; i < num_tokens(); ++i) {
    if (token(i).text != other.token(i).text) return false;
  }
  return true;
}

std::string Document::DebugString() const {
  std::ostringstream os;
  os << "Document{" << id_ << " domain=" << domain_ << " tokens=" << num_tokens()
     << " lines=" << lines_.size() << " annotations=" << annotations_.size()
     << "}";
  return os.str();
}

}  // namespace fieldswap
