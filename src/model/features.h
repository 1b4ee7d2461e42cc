#ifndef FIELDSWAP_MODEL_FEATURES_H_
#define FIELDSWAP_MODEL_FEATURES_H_

#include <array>
#include <string>
#include <string_view>

#include "doc/document.h"

namespace fieldswap {

/// Compressed word-shape signature: uppercase -> 'X', lowercase -> 'x',
/// digit -> 'd', other kept verbatim; runs collapsed to one symbol.
/// "$3,308.62" -> "$d,d.d", "Overtime" -> "Xx".
std::string TokenShape(std::string_view text);

/// Feature-hash bucket of the lowercased token text.
int TextBucket(std::string_view text, int num_buckets);

/// Feature-hash bucket of the token's shape signature.
int ShapeBucket(std::string_view text, int num_buckets);

inline constexpr int kNumPositionFeatures = 4;
inline constexpr int kNumRelativeFeatures = 6;

/// Normalized absolute position features of a box on a page:
/// {cx/W, cy/H, w/W, h/H}.
std::array<float, kNumPositionFeatures> PositionFeatures(const BBox& box,
                                                         double page_width,
                                                         double page_height);

/// Relative spatial features of `neighbor` w.r.t. `anchor`:
/// {dx/W, dy/H, |dx|/W, |dy|/H, normalized off-axis distance, same-y-band}.
std::array<float, kNumRelativeFeatures> RelativeFeatures(const BBox& anchor,
                                                         const BBox& neighbor,
                                                         double page_width,
                                                         double page_height);

}  // namespace fieldswap

#endif  // FIELDSWAP_MODEL_FEATURES_H_
