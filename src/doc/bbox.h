#ifndef FIELDSWAP_DOC_BBOX_H_
#define FIELDSWAP_DOC_BBOX_H_

#include <algorithm>
#include <cmath>
#include <string>

namespace fieldswap {

/// Axis-aligned bounding box in page coordinates. The page coordinate
/// system has the origin at the top-left corner, x growing rightward and
/// y growing downward, matching the output of OCR engines.
struct BBox {
  double x_min = 0;
  double y_min = 0;
  double x_max = 0;
  double y_max = 0;

  double Width() const { return x_max - x_min; }
  double Height() const { return y_max - y_min; }
  double CenterX() const { return 0.5 * (x_min + x_max); }
  double CenterY() const { return 0.5 * (y_min + y_max); }
  double Area() const { return Width() * Height(); }

  bool Contains(double x, double y) const {
    return x >= x_min && x <= x_max && y >= y_min && y <= y_max;
  }

  bool Intersects(const BBox& other) const {
    return x_min <= other.x_max && other.x_min <= x_max &&
           y_min <= other.y_max && other.y_min <= y_max;
  }

  /// Smallest box covering both boxes.
  BBox Union(const BBox& other) const {
    return BBox{std::min(x_min, other.x_min), std::min(y_min, other.y_min),
                std::max(x_max, other.x_max), std::max(y_max, other.y_max)};
  }

  /// Vertical overlap length with `other` (0 if disjoint in y).
  double VerticalOverlap(const BBox& other) const {
    return std::max(0.0, std::min(y_max, other.y_max) -
                             std::max(y_min, other.y_min));
  }

  std::string DebugString() const;

  friend bool operator==(const BBox& a, const BBox& b) = default;
};

/// The paper's off-axis distance between two points (Sec. II-A2):
/// |a_x - b_x| * |a_y - b_y|. Near zero when the points are aligned on
/// either axis; large when they are diagonal to each other. Inline: the
/// neighbor search evaluates it for every pair of tokens.
inline double OffAxisDistance(double ax, double ay, double bx, double by) {
  return std::fabs(ax - bx) * std::fabs(ay - by);
}

/// Off-axis distance between box centers.
inline double OffAxisDistance(const BBox& a, const BBox& b) {
  return OffAxisDistance(a.CenterX(), a.CenterY(), b.CenterX(), b.CenterY());
}

}  // namespace fieldswap

#endif  // FIELDSWAP_DOC_BBOX_H_
