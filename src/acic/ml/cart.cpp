#include "acic/ml/cart.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <utility>

#include "acic/common/error.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::ml {

namespace {

/// Nodes with fewer samples are leaves.
constexpr std::size_t kMinSamplesSplit = 4;
/// Minimum relative SSE improvement for a split to be kept.
constexpr double kMinGain = 1e-9;

struct SplitChoice {
  bool found = false;
  int feature = -1;
  double threshold = 0.0;
  double sse = std::numeric_limits<double>::infinity();
};

}  // namespace

CartTree CartTree::train(const Dataset& data, const CartParams& params) {
  std::vector<std::size_t> rows(data.rows());
  std::iota(rows.begin(), rows.end(), 0);
  return train_on_rows(data, rows, params);
}

CartTree CartTree::train_on_rows(const Dataset& data,
                                 std::span<const std::size_t> rows,
                                 const CartParams& params) {
  ACIC_EXPECTS(!rows.empty(), "cannot fit CART on an empty row view");
  ACIC_EXPECTS(params.max_depth >= 1,
               "CART max_depth must be >= 1, got " << params.max_depth);
  ACIC_EXPECTS(params.min_samples_leaf >= 1,
               "CART min_samples_leaf must be >= 1, got "
                   << params.min_samples_leaf);
  ACIC_DCHECK(
      [&] {
        for (std::size_t r : rows) {
          if (r >= data.rows()) return false;
        }
        return true;
      }(),
      "row view references a row outside the dataset");
  CartTree tree;

  // Replicate split_validation()'s deterministic every-k-th holdout over
  // the view: position i of the view goes to validation iff
  // i % k == k - 1.  Only the (small) validation part is materialised;
  // the training side stays an index view.
  std::vector<std::size_t> train_rows;
  Dataset val_part;
  if (params.prune_holdout >= 2 && rows.size() >= 4 * params.prune_holdout) {
    const std::size_t k = params.prune_holdout;
    train_rows.reserve(rows.size() - rows.size() / k);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i % k == k - 1) {
        val_part.x.push_back(data.x[rows[i]]);
        val_part.y.push_back(data.y[rows[i]]);
      } else {
        train_rows.push_back(rows[i]);
      }
    }
  } else {
    train_rows.assign(rows.begin(), rows.end());
  }

  tree.root_ = tree.build(data, train_rows, 0, train_rows.size(), 0, params);

  if (val_part.rows() > 0) tree.prune_with(val_part);
  tree.flat_ = FlatTree(tree);
  return tree;
}

int CartTree::build(const Dataset& data, std::vector<std::size_t>& index,
                    std::size_t begin, std::size_t end, int depth,
                    const CartParams& params) {
  const std::size_t n = end - begin;
  ACIC_CHECK(n > 0);

  Node node;
  node.samples = n;
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const double y = data.y[index[i]];
    sum += y;
    sum_sq += y * y;
  }
  node.mean = sum / static_cast<double>(n);
  ACIC_CHECK(std::isfinite(node.mean),
             "non-finite node mean (loss) over " << n << " samples");
  const double sse_here =
      std::max(0.0, sum_sq - sum * sum / static_cast<double>(n));
  node.stddev = std::sqrt(sse_here / static_cast<double>(n));

  const bool can_split =
      depth < params.max_depth && n >= kMinSamplesSplit && sse_here > 0.0;

  SplitChoice best;
  // Candidates are visited by feature index, then ascending threshold, and
  // a later one replaces the best only if its SSE is lower by more than
  // this.  Two features that induce one partition from opposite sides get
  // SSEs that differ only by rounding (the prefix scan accumulates the
  // other side), so without the margin that noise would pick the split;
  // with it the earlier candidate keeps the tie.
  const double tie_margin = 1e-12 * sum_sq;
  if (can_split) {
    const std::size_t features = data.features();
    std::vector<std::pair<double, double>> column(n);  // (x, y)
    for (std::size_t f = 0; f < features; ++f) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t row = index[begin + i];
        column[i] = {data.x[row][f], data.y[row]};
      }
      std::sort(column.begin(), column.end());
      // Prefix scan: evaluate every boundary between distinct x values.
      double left_sum = 0.0, left_sq = 0.0;
      for (std::size_t k = 1; k < n; ++k) {
        left_sum += column[k - 1].second;
        left_sq += column[k - 1].second * column[k - 1].second;
        if (column[k - 1].first == column[k].first) continue;
        const std::size_t nl = k, nr = n - k;
        if (nl < static_cast<std::size_t>(params.min_samples_leaf) ||
            nr < static_cast<std::size_t>(params.min_samples_leaf)) {
          continue;
        }
        const double right_sum = sum - left_sum;
        const double right_sq = sum_sq - left_sq;
        const double sse_l =
            left_sq - left_sum * left_sum / static_cast<double>(nl);
        const double sse_r =
            right_sq - right_sum * right_sum / static_cast<double>(nr);
        const double sse = sse_l + sse_r;
        if (sse < best.sse - tie_margin) {
          // Midpoint of adjacent doubles can round back onto the lower
          // value (or overflow for huge magnitudes), which would make the
          // `x < thr` partition produce an empty left side.  Any thr with
          // a < thr <= b yields the same partition, so fall back to b.
          const double a = column[k - 1].first;
          const double b = column[k].first;
          double thr = 0.5 * (a + b);
          if (!(a < thr && thr <= b)) thr = b;
          best.found = true;
          best.feature = static_cast<int>(f);
          best.threshold = thr;
          best.sse = sse;
        }
      }
    }
    if (best.found &&
        sse_here - best.sse < kMinGain * std::max(sse_here, 1e-30)) {
      best.found = false;  // gain too small to be worth a node
    }
  }

  const int my_id = static_cast<int>(nodes_.size());
  nodes_.push_back(node);

  if (!best.found) return my_id;

  // Partition the index range on the chosen split.
  const int f = best.feature;
  const double thr = best.threshold;
  auto mid_it = std::partition(
      index.begin() + static_cast<std::ptrdiff_t>(begin),
      index.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t row) { return data.x[row][static_cast<std::size_t>(f)] <
                                    thr; });
  const std::size_t mid =
      static_cast<std::size_t>(mid_it - index.begin());
  ACIC_CHECK(mid > begin && mid < end,
             "CART split produced an empty side: begin=" << begin << " mid="
                                                         << mid
                                                         << " end=" << end);

  const int left = build(data, index, begin, mid, depth + 1, params);
  const int right = build(data, index, mid, end, depth + 1, params);
  nodes_[static_cast<std::size_t>(my_id)].leaf = false;
  nodes_[static_cast<std::size_t>(my_id)].feature = f;
  nodes_[static_cast<std::size_t>(my_id)].threshold = thr;
  nodes_[static_cast<std::size_t>(my_id)].left = left;
  nodes_[static_cast<std::size_t>(my_id)].right = right;
  return my_id;
}

void CartTree::prune_with(const Dataset& validation) {
  if (root_ < 0 || validation.rows() == 0) return;
  // Route every validation sample through the tree, recording visits.
  std::vector<std::vector<std::size_t>> at(nodes_.size());
  for (std::size_t i = 0; i < validation.rows(); ++i) {
    int n = root_;
    while (true) {
      at[static_cast<std::size_t>(n)].push_back(i);
      const Node& node = nodes_[static_cast<std::size_t>(n)];
      if (node.leaf) break;
      n = validation.x[i][static_cast<std::size_t>(node.feature)] <
                  node.threshold
              ? node.left
              : node.right;
    }
  }
  // Bottom-up reduced-error pruning.
  std::function<double(int)> best_sse = [&](int n) -> double {
    Node& node = nodes_[static_cast<std::size_t>(n)];
    const auto& rows = at[static_cast<std::size_t>(n)];
    double leaf_sse = 0.0;
    for (std::size_t i : rows) {
      const double e = validation.y[i] - node.mean;
      leaf_sse += e * e;
    }
    if (node.leaf) return leaf_sse;
    const double child_sse = best_sse(node.left) + best_sse(node.right);
    // Collapse only when the held-out data actually prefers the leaf;
    // unseen subtrees (no validation traffic) are left alone.
    if (!rows.empty() && leaf_sse <= child_sse + 1e-12) {
      node.leaf = true;
      node.left = node.right = -1;
      return leaf_sse;
    }
    return child_sse;
  };
  best_sse(root_);
}

double CartTree::predict(std::span<const double> features) const {
  ACIC_EXPECTS(root_ >= 0, "predict() on an unfitted tree");
  int n = root_;
  while (true) {
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    if (node.leaf) {
      ACIC_ENSURES(std::isfinite(node.mean), "non-finite CART prediction");
      return node.mean;
    }
    ACIC_CHECK(static_cast<std::size_t>(node.feature) < features.size(),
               "tree split on feature " << node.feature << " but only "
                                        << features.size()
                                        << " features supplied");
    n = features[static_cast<std::size_t>(node.feature)] < node.threshold
            ? node.left
            : node.right;
  }
}

void CartTree::predict_batch(std::span<const double> X, std::size_t n_rows,
                             std::span<double> out) const {
  ACIC_EXPECTS(root_ >= 0, "predict_batch() on an unfitted tree");
  flat_.predict_batch(X, n_rows, out);
}

int CartTree::node_count() const {
  int count = 0;
  std::function<void(int)> visit = [&](int n) {
    if (n < 0) return;
    ++count;
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    if (!node.leaf) {
      visit(node.left);
      visit(node.right);
    }
  };
  visit(root_);
  return count;
}

int CartTree::leaf_count() const {
  int count = 0;
  std::function<void(int)> visit = [&](int n) {
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    if (node.leaf) {
      ++count;
    } else {
      visit(node.left);
      visit(node.right);
    }
  };
  if (root_ >= 0) visit(root_);
  return count;
}

int CartTree::depth() const {
  std::function<int(int)> visit = [&](int n) -> int {
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    if (node.leaf) return 1;
    return 1 + std::max(visit(node.left), visit(node.right));
  };
  return root_ >= 0 ? visit(root_) : 0;
}

std::vector<int> CartTree::split_counts(std::size_t features) const {
  std::vector<int> counts(features, 0);
  std::function<void(int)> visit = [&](int n) {
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    if (node.leaf) return;
    if (static_cast<std::size_t>(node.feature) < features) {
      ++counts[static_cast<std::size_t>(node.feature)];
    }
    visit(node.left);
    visit(node.right);
  };
  if (root_ >= 0) visit(root_);
  return counts;
}

void CartTree::dump_node(int n, int indent,
                         const std::vector<std::string>& feature_names,
                         std::string& out) const {
  const Node& node = nodes_[static_cast<std::size_t>(n)];
  std::ostringstream os;
  os << std::string(static_cast<std::size_t>(indent) * 2, ' ');
  if (node.leaf) {
    os << "leaf: avg=" << node.mean << " std=" << node.stddev
       << " n=" << node.samples << "\n";
    out += os.str();
    return;
  }
  std::string fname =
      static_cast<std::size_t>(node.feature) < feature_names.size()
          ? feature_names[static_cast<std::size_t>(node.feature)]
          : "x" + std::to_string(node.feature);
  os << fname << " < " << node.threshold << " ? (avg=" << node.mean
     << " std=" << node.stddev << " n=" << node.samples << ")\n";
  out += os.str();
  dump_node(node.left, indent + 1, feature_names, out);
  dump_node(node.right, indent + 1, feature_names, out);
}

std::string CartTree::dump(
    const std::vector<std::string>& feature_names) const {
  std::string out;
  if (root_ >= 0) dump_node(root_, 0, feature_names, out);
  return out;
}

}  // namespace acic::ml

namespace acic::plugin {

// The paper's learner (§4: a CART regression tree per objective).
LearnerPlugin cart_learner() {
  return {"cart", []() -> std::unique_ptr<ml::Learner> {
            return std::make_unique<ml::CartTree>();
          }};
}

}  // namespace acic::plugin
