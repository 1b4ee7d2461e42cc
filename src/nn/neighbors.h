#ifndef FIELDSWAP_NN_NEIGHBORS_H_
#define FIELDSWAP_NN_NEIGHBORS_H_

#include <memory>
#include <span>
#include <vector>

namespace fieldswap {

/// Per-row attention neighbor lists in compressed sparse row form: row i
/// attends to indices[offsets[i]] .. indices[offsets[i + 1] - 1], in that
/// order. Two flat arrays instead of one vector per row, so building the
/// lists of a document costs two allocations whatever its length.
struct NeighborLists {
  /// rows() + 1 entries, non-decreasing, offsets[0] == 0 (empty when there
  /// are no rows).
  std::vector<int> offsets;
  std::vector<int> indices;

  int rows() const {
    return offsets.empty() ? 0 : static_cast<int>(offsets.size()) - 1;
  }
  std::span<const int> Row(int i) const {
    const auto begin = static_cast<size_t>(offsets[static_cast<size_t>(i)]);
    const auto end = static_cast<size_t>(offsets[static_cast<size_t>(i) + 1]);
    return std::span<const int>(indices).subspan(begin, end - begin);
  }

  /// Lists holding `rows` verbatim.
  static std::shared_ptr<const NeighborLists> FromRows(
      const std::vector<std::vector<int>>& rows);
  /// Full self-attention: each of the t rows attends to 0 .. t - 1.
  static std::shared_ptr<const NeighborLists> Full(int t);
};

}  // namespace fieldswap

#endif  // FIELDSWAP_NN_NEIGHBORS_H_
