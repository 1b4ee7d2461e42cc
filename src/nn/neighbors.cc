#include "nn/neighbors.h"

namespace fieldswap {

std::shared_ptr<const NeighborLists> NeighborLists::FromRows(
    const std::vector<std::vector<int>>& rows) {
  auto lists = std::make_shared<NeighborLists>();
  lists->offsets.reserve(rows.size() + 1);
  lists->offsets.push_back(0);
  for (const std::vector<int>& row : rows) {
    lists->indices.insert(lists->indices.end(), row.begin(), row.end());
    lists->offsets.push_back(static_cast<int>(lists->indices.size()));
  }
  return lists;
}

std::shared_ptr<const NeighborLists> NeighborLists::Full(int t) {
  auto lists = std::make_shared<NeighborLists>();
  lists->offsets.reserve(static_cast<size_t>(t) + 1);
  lists->indices.reserve(static_cast<size_t>(t) * static_cast<size_t>(t));
  lists->offsets.push_back(0);
  for (int i = 0; i < t; ++i) {
    for (int j = 0; j < t; ++j) lists->indices.push_back(j);
    lists->offsets.push_back(static_cast<int>(lists->indices.size()));
  }
  return lists;
}

}  // namespace fieldswap
