#include "spatial/r_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

#include "geom/distance.hpp"

namespace sdb {

RTree::RTree(const PointSet& points, int max_entries)
    : points_(points),
      dim_(points.dim() > 0 ? points.dim() : 1),
      max_entries_(std::max(4, max_entries)),
      min_entries_(std::max(2, static_cast<int>(max_entries_ * 0.4))) {
  for (PointId i = 0; i < static_cast<PointId>(points_.size()); ++i) {
    insert(i);
  }
}

u32 RTree::alloc_rect() {
  const auto rect = static_cast<u32>(rects_.size());
  rects_.resize(rects_.size() + 2 * static_cast<size_t>(dim_));
  return rect;
}

void RTree::rect_set_point(u32 rect, std::span<const double> p) {
  for (int d = 0; d < dim_; ++d) {
    rect_lo(rect)[d] = p[static_cast<size_t>(d)];
    rect_hi(rect)[d] = p[static_cast<size_t>(d)];
  }
}

void RTree::rect_extend(u32 dst, u32 src) {
  for (int d = 0; d < dim_; ++d) {
    rect_lo(dst)[d] = std::min(rect_lo(dst)[d], rect_lo(src)[d]);
    rect_hi(dst)[d] = std::max(rect_hi(dst)[d], rect_hi(src)[d]);
  }
}

double RTree::rect_area(u32 rect) const {
  double a = 1.0;
  for (int d = 0; d < dim_; ++d) a *= rect_hi(rect)[d] - rect_lo(rect)[d];
  return a;
}

double RTree::rect_margin(u32 rect) const {
  double m = 0.0;
  for (int d = 0; d < dim_; ++d) m += rect_hi(rect)[d] - rect_lo(rect)[d];
  return m;
}

double RTree::rect_enlargement(u32 rect, std::span<const double> p) const {
  // Area enlargement is numerically fragile in high dimensions (products of
  // many edge lengths); R* implementations for point data commonly fall
  // back to margin enlargement, which is what we use.
  double enlargement = 0.0;
  for (int d = 0; d < dim_; ++d) {
    const double lo = rect_lo(rect)[d];
    const double hi = rect_hi(rect)[d];
    const double x = p[static_cast<size_t>(d)];
    if (x < lo) enlargement += lo - x;
    else if (x > hi) enlargement += x - hi;
  }
  return enlargement;
}

double RTree::rect_distance2(u32 rect, std::span<const double> q) const {
  double s = 0.0;
  for (int d = 0; d < dim_; ++d) {
    double diff = 0.0;
    const double x = q[static_cast<size_t>(d)];
    if (x < rect_lo(rect)[d]) diff = rect_lo(rect)[d] - x;
    else if (x > rect_hi(rect)[d]) diff = x - rect_hi(rect)[d];
    s += diff * diff;
  }
  return s;
}

void RTree::insert(PointId id) {
  if (root_ < 0) {
    Node leaf;
    leaf.leaf = true;
    leaf.rect = alloc_rect();
    rect_set_point(leaf.rect, points_[id]);
    leaf.children.push_back(static_cast<i32>(id));
    nodes_.push_back(std::move(leaf));
    root_ = 0;
    height_ = 1;
    return;
  }
  const i32 sibling = insert_recursive(root_, id);
  if (sibling >= 0) {
    // Root split: grow the tree by one level.
    Node new_root;
    new_root.leaf = false;
    new_root.rect = alloc_rect();
    new_root.children = {root_, sibling};
    const auto new_root_id = static_cast<i32>(nodes_.size());
    nodes_.push_back(std::move(new_root));
    // Initialize the new root's rect from its two children.
    const u32 rr = nodes_[static_cast<size_t>(new_root_id)].rect;
    const u32 r0 = nodes_[static_cast<size_t>(root_)].rect;
    for (int d = 0; d < dim_; ++d) {
      rect_lo(rr)[d] = rect_lo(r0)[d];
      rect_hi(rr)[d] = rect_hi(r0)[d];
    }
    rect_extend(rr, nodes_[static_cast<size_t>(sibling)].rect);
    root_ = new_root_id;
    ++height_;
  }
}

i32 RTree::insert_recursive(i32 node_id, PointId id) {
  // NOTE: nodes_ may reallocate during recursion (splits push_back), so
  // never hold a Node reference across a recursive call.
  const auto p = points_[id];
  {
    Node& node = nodes_[static_cast<size_t>(node_id)];
    for (int d = 0; d < dim_; ++d) {
      rect_lo(node.rect)[d] = std::min(rect_lo(node.rect)[d],
                                       p[static_cast<size_t>(d)]);
      rect_hi(node.rect)[d] = std::max(rect_hi(node.rect)[d],
                                       p[static_cast<size_t>(d)]);
    }
    if (node.leaf) {
      node.children.push_back(static_cast<i32>(id));
      if (static_cast<int>(node.children.size()) > max_entries_) {
        return split(node_id);
      }
      return -1;
    }
  }

  // Choose-subtree: least margin enlargement, ties by least area.
  i32 best_child = -1;
  double best_enlargement = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  {
    const Node& node = nodes_[static_cast<size_t>(node_id)];
    for (const i32 child : node.children) {
      const u32 rect = nodes_[static_cast<size_t>(child)].rect;
      const double enlargement = rect_enlargement(rect, p);
      const double area = rect_margin(rect);
      if (enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area)) {
        best_enlargement = enlargement;
        best_area = area;
        best_child = child;
      }
    }
  }
  const i32 sibling = insert_recursive(best_child, id);
  if (sibling >= 0) {
    Node& node = nodes_[static_cast<size_t>(node_id)];
    node.children.push_back(sibling);
    rect_extend(node.rect, nodes_[static_cast<size_t>(sibling)].rect);
    if (static_cast<int>(node.children.size()) > max_entries_) {
      return split(node_id);
    }
  }
  return -1;
}

i32 RTree::split(i32 node_id) {
  // Materialize entry boxes (degenerate for leaf point entries).
  const bool leaf = nodes_[static_cast<size_t>(node_id)].leaf;
  std::vector<i32> entries = nodes_[static_cast<size_t>(node_id)].children;
  const size_t count = entries.size();
  std::vector<double> lo(count * static_cast<size_t>(dim_));
  std::vector<double> hi(count * static_cast<size_t>(dim_));
  for (size_t i = 0; i < count; ++i) {
    if (leaf) {
      const auto p = points_[entries[i]];
      for (int d = 0; d < dim_; ++d) {
        lo[i * dim_ + static_cast<size_t>(d)] = p[static_cast<size_t>(d)];
        hi[i * dim_ + static_cast<size_t>(d)] = p[static_cast<size_t>(d)];
      }
    } else {
      const u32 rect = nodes_[static_cast<size_t>(entries[i])].rect;
      for (int d = 0; d < dim_; ++d) {
        lo[i * dim_ + static_cast<size_t>(d)] = rect_lo(rect)[d];
        hi[i * dim_ + static_cast<size_t>(d)] = rect_hi(rect)[d];
      }
    }
  }

  // R* split axis: minimize the summed margins of all valid distributions
  // after sorting along the axis (entries sorted by box center).
  auto group_margin = [&](const std::vector<size_t>& order, size_t from,
                          size_t to) {
    std::vector<double> glo(static_cast<size_t>(dim_),
                            std::numeric_limits<double>::infinity());
    std::vector<double> ghi(static_cast<size_t>(dim_),
                            -std::numeric_limits<double>::infinity());
    for (size_t i = from; i < to; ++i) {
      for (int d = 0; d < dim_; ++d) {
        glo[static_cast<size_t>(d)] = std::min(
            glo[static_cast<size_t>(d)], lo[order[i] * dim_ + static_cast<size_t>(d)]);
        ghi[static_cast<size_t>(d)] = std::max(
            ghi[static_cast<size_t>(d)], hi[order[i] * dim_ + static_cast<size_t>(d)]);
      }
    }
    double margin = 0.0;
    for (int d = 0; d < dim_; ++d) {
      margin += ghi[static_cast<size_t>(d)] - glo[static_cast<size_t>(d)];
    }
    return margin;
  };

  const auto min_k = static_cast<size_t>(min_entries_);
  int best_axis = 0;
  double best_axis_margin = std::numeric_limits<double>::infinity();
  std::vector<size_t> best_order;
  for (int axis = 0; axis < dim_; ++axis) {
    std::vector<size_t> order(count);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const double ca = lo[a * dim_ + static_cast<size_t>(axis)] +
                        hi[a * dim_ + static_cast<size_t>(axis)];
      const double cb = lo[b * dim_ + static_cast<size_t>(axis)] +
                        hi[b * dim_ + static_cast<size_t>(axis)];
      return ca < cb;
    });
    double margin_sum = 0.0;
    for (size_t k = min_k; k + min_k <= count; ++k) {
      margin_sum += group_margin(order, 0, k) + group_margin(order, k, count);
    }
    if (margin_sum < best_axis_margin) {
      best_axis_margin = margin_sum;
      best_axis = axis;
      best_order = std::move(order);
    }
  }
  (void)best_axis;

  // Best distribution on the chosen axis: minimize total margin (a robust
  // stand-in for R*'s overlap criterion with point data).
  size_t best_split = min_k;
  double best_value = std::numeric_limits<double>::infinity();
  for (size_t k = min_k; k + min_k <= count; ++k) {
    const double value =
        group_margin(best_order, 0, k) + group_margin(best_order, k, count);
    if (value < best_value) {
      best_value = value;
      best_split = k;
    }
  }

  // Build the sibling; shrink this node to the first group.
  Node sibling;
  sibling.leaf = leaf;
  sibling.rect = alloc_rect();
  std::vector<i32> keep;
  keep.reserve(best_split);
  for (size_t i = 0; i < best_split; ++i) keep.push_back(entries[best_order[i]]);
  for (size_t i = best_split; i < count; ++i) {
    sibling.children.push_back(entries[best_order[i]]);
  }
  const auto sibling_id = static_cast<i32>(nodes_.size());
  nodes_.push_back(std::move(sibling));
  nodes_[static_cast<size_t>(node_id)].children = std::move(keep);
  recompute_rect(node_id);
  recompute_rect(sibling_id);
  return sibling_id;
}

void RTree::recompute_rect(i32 node_id) {
  Node& node = nodes_[static_cast<size_t>(node_id)];
  for (int d = 0; d < dim_; ++d) {
    rect_lo(node.rect)[d] = std::numeric_limits<double>::infinity();
    rect_hi(node.rect)[d] = -std::numeric_limits<double>::infinity();
  }
  for (const i32 child : node.children) {
    if (node.leaf) {
      const auto p = points_[child];
      for (int d = 0; d < dim_; ++d) {
        rect_lo(node.rect)[d] = std::min(rect_lo(node.rect)[d],
                                         p[static_cast<size_t>(d)]);
        rect_hi(node.rect)[d] = std::max(rect_hi(node.rect)[d],
                                         p[static_cast<size_t>(d)]);
      }
    } else {
      rect_extend(node.rect, nodes_[static_cast<size_t>(child)].rect);
    }
  }
}

void RTree::range_query_budgeted(std::span<const double> q, double eps,
                                 const QueryBudget& budget,
                                 std::vector<PointId>& out) const {
  if (root_ < 0) return;
  u64 visited = 0;
  u64 evals = 0;
  u64 found = 0;
  bool stopped = false;
  query_node(root_, q, eps * eps, budget, visited, evals, found, stopped, out);
  counters::tree_nodes(visited);
  counters::distance_evals(evals);
}

void RTree::query_node(i32 node_id, std::span<const double> q, double eps2,
                       const QueryBudget& budget, u64& visited, u64& evals,
                       u64& found, bool& stopped,
                       std::vector<PointId>& out) const {
  if (stopped) return;
  // Node budget: stop before the node past the cap, so a capped query
  // charges at most max_nodes.
  if (budget.max_nodes != 0 && visited == budget.max_nodes) {
    stopped = true;
    return;
  }
  ++visited;
  const Node& node = nodes_[static_cast<size_t>(node_id)];
  if (rect_distance2(node.rect, q) > eps2) return;
  if (node.leaf) {
    // One eval per leaf entry examined, tallied locally and flushed once
    // per query by the caller — the same charging rule and granularity as
    // the kd-tree path (this used to go through the counted
    // squared_distance wrapper per row and counters::tree_nodes per node).
    for (const i32 id : node.children) {
      ++evals;
      if (squared_distance_uncounted(q, points_[id]) <= eps2) {
        out.push_back(id);
        ++found;
        if (budget.max_neighbors != 0 && found >= budget.max_neighbors) {
          stopped = true;
          return;
        }
      }
    }
    return;
  }
  for (const i32 child : node.children) {
    query_node(child, q, eps2, budget, visited, evals, found, stopped, out);
    if (stopped) return;
  }
}

void RTree::knn_query(std::span<const double> q, size_t k,
                      const QueryBudget& budget,
                      std::vector<KnnHit>& out) const {
  // Max-heap of lexicographic (d2, id) pairs — smaller-id tie-break at the
  // k-th distance (see the contract in spatial_index.hpp).
  using Entry = std::pair<double, PointId>;
  std::priority_queue<Entry> heap;
  if (root_ < 0 || k == 0) return;

  u64 nodes_visited = 0;
  u64 evals = 0;
  auto visit = [&](auto&& self, i32 node_id) -> void {
    if (budget.max_nodes != 0 && nodes_visited >= budget.max_nodes) return;
    ++nodes_visited;
    const Node& node = nodes_[static_cast<size_t>(node_id)];
    // Strict > keeps the tie-break exact: a subtree at rectangle distance
    // equal to the current k-th distance may still hold an equal-distance
    // point with a smaller id.
    if (heap.size() == k &&
        rect_distance2(node.rect, q) > heap.top().first) {
      return;
    }
    if (node.leaf) {
      for (const i32 id : node.children) {
        ++evals;
        const Entry cand{squared_distance_uncounted(q, points_[id]),
                         static_cast<PointId>(id)};
        if (heap.size() < k) {
          heap.push(cand);
        } else if (cand < heap.top()) {
          heap.pop();
          heap.push(cand);
        }
      }
      return;
    }
    // Descend children nearest-rectangle-first (ties: child order) — the
    // deterministic analogue of the kd-tree's near-child-first descent,
    // and what makes the heap-top pruning above effective.
    std::vector<std::pair<double, size_t>> order;
    order.reserve(node.children.size());
    for (size_t i = 0; i < node.children.size(); ++i) {
      order.emplace_back(
          rect_distance2(nodes_[static_cast<size_t>(node.children[i])].rect,
                         q),
          i);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [dist, i] : order) {
      self(self, node.children[i]);
    }
  };
  visit(visit, root_);
  counters::tree_nodes(nodes_visited);
  counters::distance_evals(evals);

  const size_t base = out.size();
  out.resize(base + heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    out[base + i] = KnnHit{heap.top().first, heap.top().second};
    heap.pop();
  }
}

u64 RTree::byte_size() const {
  u64 bytes = points_.byte_size() + rects_.size() * sizeof(double);
  for (const Node& node : nodes_) {
    bytes += sizeof(Node) + node.children.size() * sizeof(i32);
  }
  return bytes;
}

void RTree::check_invariants() const {
  if (root_ < 0) return;
  // Leaf depth uniformity: find it first.
  int leaf_depth = 0;
  for (i32 n = root_; !nodes_[static_cast<size_t>(n)].leaf;
       n = nodes_[static_cast<size_t>(n)].children.front()) {
    ++leaf_depth;
  }
  check_node(root_, 0, leaf_depth);
}

void RTree::check_node(i32 node_id, int depth, int leaf_depth) const {
  const Node& node = nodes_[static_cast<size_t>(node_id)];
  SDB_CHECK(!node.children.empty(), "R-tree node with no children");
  if (node_id != root_) {
    SDB_CHECK(static_cast<int>(node.children.size()) >= min_entries_,
              "R-tree node underfilled");
  }
  SDB_CHECK(static_cast<int>(node.children.size()) <= max_entries_,
            "R-tree node overfilled");
  if (node.leaf) {
    SDB_CHECK(depth == leaf_depth, "R-tree leaves at different depths");
    for (const i32 id : node.children) {
      const auto p = points_[id];
      for (int d = 0; d < dim_; ++d) {
        SDB_CHECK(p[static_cast<size_t>(d)] >= rect_lo(node.rect)[d] &&
                      p[static_cast<size_t>(d)] <= rect_hi(node.rect)[d],
                  "leaf point outside node rect");
      }
    }
    return;
  }
  for (const i32 child : node.children) {
    const u32 crect = nodes_[static_cast<size_t>(child)].rect;
    for (int d = 0; d < dim_; ++d) {
      SDB_CHECK(rect_lo(crect)[d] >= rect_lo(node.rect)[d] - 1e-12 &&
                    rect_hi(crect)[d] <= rect_hi(node.rect)[d] + 1e-12,
                "child rect outside parent rect");
    }
    check_node(child, depth + 1, leaf_depth);
  }
}

}  // namespace sdb
