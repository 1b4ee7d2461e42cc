#include "model/features.h"

#include <cctype>
#include <cmath>

#include "util/hash.h"
#include "util/strings.h"

namespace fieldswap {

std::string TokenShape(std::string_view text) {
  std::string shape;
  char prev = '\0';
  for (char c : text) {
    char symbol;
    if (std::isupper(static_cast<unsigned char>(c))) {
      symbol = 'X';
    } else if (std::islower(static_cast<unsigned char>(c))) {
      symbol = 'x';
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      symbol = 'd';
    } else {
      symbol = c;
    }
    if (symbol != prev) {
      shape.push_back(symbol);
      prev = symbol;
    }
  }
  return shape;
}

int TextBucket(std::string_view text, int num_buckets) {
  return static_cast<int>(
      HashBucket(ToLower(text), static_cast<uint32_t>(num_buckets)));
}

int ShapeBucket(std::string_view text, int num_buckets) {
  return static_cast<int>(
      HashBucket(TokenShape(text), static_cast<uint32_t>(num_buckets)));
}

std::array<float, kNumPositionFeatures> PositionFeatures(const BBox& box,
                                                         double page_width,
                                                         double page_height) {
  return {static_cast<float>(box.CenterX() / page_width),
          static_cast<float>(box.CenterY() / page_height),
          static_cast<float>(box.Width() / page_width),
          static_cast<float>(box.Height() / page_height)};
}

std::array<float, kNumRelativeFeatures> RelativeFeatures(const BBox& anchor,
                                                         const BBox& neighbor,
                                                         double page_width,
                                                         double page_height) {
  double dx = (neighbor.CenterX() - anchor.CenterX()) / page_width;
  double dy = (neighbor.CenterY() - anchor.CenterY()) / page_height;
  double off_axis = std::fabs(dx) * std::fabs(dy);
  bool same_band = neighbor.VerticalOverlap(anchor) >
                   0.5 * std::min(neighbor.Height(), anchor.Height());
  return {static_cast<float>(dx),
          static_cast<float>(dy),
          static_cast<float>(std::fabs(dx)),
          static_cast<float>(std::fabs(dy)),
          static_cast<float>(off_axis),
          same_band ? 1.0f : 0.0f};
}

}  // namespace fieldswap
