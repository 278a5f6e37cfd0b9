// Contiguous structure-of-arrays snapshot of a trained CART tree.
//
// CartTree's node vector is fine for training but slow to evaluate in
// bulk: predict() hops through a 64-byte Node per level and the 504-row
// recommend sweep pays that pointer chase (plus a vector allocation per
// call at the predictor layer) for every candidate.  FlatTree copies the
// decision structure into three parallel arrays laid out in preorder —
// feature index, threshold, right-child index — so the whole tree sits
// in a few cache lines and the left child is always the next array slot
// (no pointer to store, no pointer to load).  Leaves are encoded as
// feature == -1 with the predicted mean stored in the threshold slot.
//
// The batch walk applies the exact comparison the pointer tree uses
// (`row[feature] < threshold`), so predictions are bit-identical to
// CartTree::predict — regression-tested, because the determinism
// contract (same model, same answer) extends to the fast path.
//
// A FlatTree is an immutable value: safe to share across threads for
// concurrent predict_batch calls once built.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace acic::ml {

class CartTree;

class FlatTree {
 public:
  FlatTree() = default;
  /// Flatten a trained tree.  The tree must have a root.
  explicit FlatTree(const CartTree& tree);

  bool empty() const { return feature_.empty(); }
  std::size_t node_count() const { return feature_.size(); }
  /// Edges on the longest root-to-leaf path (0 for a single leaf).
  std::size_t depth() const { return depth_; }

  /// Single-row evaluation; bit-identical to CartTree::predict.
  double predict(std::span<const double> features) const;

  /// Evaluate `n_rows` rows packed row-major in `X` (stride inferred as
  /// X.size() / n_rows, which must divide evenly and cover every
  /// feature a split uses) into `out[0..n_rows)`.
  void predict_batch(std::span<const double> X, std::size_t n_rows,
                     std::span<double> out) const;

  /// Accumulating variant: `out[i] += prediction(row i)`.  Lets a forest
  /// sum per-tree contributions in tree order without a temporary, which
  /// preserves the exact addition order of the per-row ensemble average.
  void predict_batch_add(std::span<const double> X, std::size_t n_rows,
                         std::span<double> out) const;

 private:
  std::int32_t flatten(const CartTree& tree, int node, std::size_t depth);
  template <bool Add>
  void batch_impl(std::span<const double> X, std::size_t n_rows,
                  std::span<double> out) const;

  std::vector<std::int32_t> feature_;  // -1 marks a leaf
  std::vector<double> threshold_;      // leaf slot holds the predicted mean
  std::vector<std::int32_t> right_;    // left child is implicitly node + 1
  std::size_t depth_ = 0;
  std::size_t min_features_ = 0;       // max split feature index + 1
};

}  // namespace acic::ml
