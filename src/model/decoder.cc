#include "model/decoder.h"

#include <limits>

#include "model/sequence_model.h"
#include "util/logging.h"

namespace fieldswap {

bool BioTransitionAllowed(int prev_tag, int tag) {
  int field = BioFieldOf(tag);
  if (field < 0 || BioIsBegin(tag)) return true;  // O and B-f always legal
  // I-f requires the previous tag to be B-f or I-f of the same field.
  return BioFieldOf(prev_tag) == field;
}

std::vector<int> ViterbiDecodeBio(const Matrix& logits) {
  const int t = logits.rows();
  const int c = logits.cols();
  if (t == 0) return {};
  FS_CHECK_GE(c, 1);

  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  Matrix score(t, c);
  // backptr[i * c + cls]: the best predecessor of class cls at token i.
  std::vector<int> backptr(static_cast<size_t>(t) * static_cast<size_t>(c), 0);

  for (int cls = 0; cls < c; ++cls) {
    // An initial I-f is illegal (nothing precedes it).
    bool legal_start = BioFieldOf(cls) < 0 || BioIsBegin(cls);
    score.At(0, cls) = legal_start ? logits.At(0, cls) : kNegInf;
  }

  for (int i = 1; i < t; ++i) {
    for (int cls = 0; cls < c; ++cls) {
      float best = kNegInf;
      int best_prev = 0;
      for (int prev = 0; prev < c; ++prev) {
        if (score.At(i - 1, prev) == kNegInf) continue;
        if (!BioTransitionAllowed(prev, cls)) continue;
        if (score.At(i - 1, prev) > best) {
          best = score.At(i - 1, prev);
          best_prev = prev;
        }
      }
      score.At(i, cls) = best == kNegInf ? kNegInf : best + logits.At(i, cls);
      backptr[static_cast<size_t>(i) * static_cast<size_t>(c) +
              static_cast<size_t>(cls)] = best_prev;
    }
  }

  int best_last = 0;
  for (int cls = 1; cls < c; ++cls) {
    if (score.At(t - 1, cls) > score.At(t - 1, best_last)) best_last = cls;
  }
  std::vector<int> tags(static_cast<size_t>(t));
  tags[static_cast<size_t>(t - 1)] = best_last;
  for (int i = t - 1; i > 0; --i) {
    tags[static_cast<size_t>(i - 1)] =
        backptr[static_cast<size_t>(i) * static_cast<size_t>(c) +
                static_cast<size_t>(tags[static_cast<size_t>(i)])];
  }
  return tags;
}

}  // namespace fieldswap
