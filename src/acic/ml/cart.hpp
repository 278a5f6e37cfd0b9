// CART regression trees (Breiman, Friedman, Olshen & Stone 1984) — the
// paper's prediction model (§4.2).
//
// Trees are grown top-down: at each node the split (feature, threshold)
// minimising the summed squared error of the two children is chosen;
// growth stops on depth/size limits, and the grown tree is pruned bottom-
// up against a held-out validation set (reduced-error pruning), which is
// the over-fitting guard the paper describes.  Every node keeps the mean
// and standard deviation of its samples so the tree can be dumped in the
// paper's Figure 4 style.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "acic/ml/dataset.hpp"
#include "acic/ml/flat_tree.hpp"

namespace acic::ml {

struct CartParams {
  int max_depth = 16;
  int min_samples_leaf = 2;
  /// 0 disables pruning; k >= 2 holds out every k-th sample and prunes
  /// subtrees that do not help on the held-out part.
  std::size_t prune_holdout = 5;
};

class CartTree final : public Learner {
 public:
  CartTree() = default;

  /// Grow (and prune) a tree on `data`.
  static CartTree train(const Dataset& data, const CartParams& params = {});

  /// Grow (and prune) a tree on the rows of `data` named by `rows` — an
  /// index view, so callers (forest bootstraps, cross-validation folds)
  /// never copy feature matrices.  Training on a view of rows [0, n) is
  /// bit-identical to train() on the whole dataset.
  static CartTree train_on_rows(const Dataset& data,
                                std::span<const std::size_t> rows,
                                const CartParams& params = {});

  // Learner interface.
  void fit(const Dataset& data) override { *this = train(data); }
  double predict(std::span<const double> features) const override;
  void predict_batch(std::span<const double> X, std::size_t n_rows,
                     std::span<double> out) const override;
  std::string name() const override { return "CART"; }

  /// Contiguous SoA snapshot of the pruned tree, rebuilt by every train;
  /// the batch fast path and anything that wants allocation-free repeated
  /// evaluation reads this.
  const FlatTree& flat() const { return flat_; }

  int node_count() const;
  int leaf_count() const;
  int depth() const;

  /// Figure 4-style rendering: predictor / threshold / avg / std per node.
  /// `feature_names` may be empty (indices are used).
  std::string dump(const std::vector<std::string>& feature_names = {}) const;

  /// How often each feature is used as a splitter (CART's own importance
  /// ordering — complements, not replaces, the PB ranking; §4.2).
  std::vector<int> split_counts(std::size_t features) const;

 private:
  friend class FlatTree;  // reads nodes_/root_ to build the SoA snapshot

  struct Node {
    bool leaf = true;
    int feature = -1;
    double threshold = 0.0;
    double mean = 0.0;
    double stddev = 0.0;
    std::size_t samples = 0;
    int left = -1;
    int right = -1;
  };

  int build(const Dataset& data, std::vector<std::size_t>& index,
            std::size_t begin, std::size_t end, int depth,
            const CartParams& params);
  void prune_with(const Dataset& validation);
  void dump_node(int node, int indent,
                 const std::vector<std::string>& feature_names,
                 std::string& out) const;

  std::vector<Node> nodes_;
  int root_ = -1;
  FlatTree flat_;
};

}  // namespace acic::ml
