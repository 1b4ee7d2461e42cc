#include "doc/bbox.h"

#include <cstdio>

namespace fieldswap {

std::string BBox::DebugString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "[%.1f,%.1f %.1fx%.1f]", x_min, y_min,
                Width(), Height());
  return buf;
}

}  // namespace fieldswap
