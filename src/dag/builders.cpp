#include "dag/builders.hpp"

#include <stdexcept>
#include <utility>

namespace abg::dag::builders {

namespace {

void require_positive(TaskCount value, const char* what) {
  if (value < 1) {
    throw std::invalid_argument(std::string("builders: ") + what +
                                " must be >= 1");
  }
}

}  // namespace

DagStructure chain(TaskCount length) {
  require_positive(length, "chain length");
  DagStructure dag;
  dag.children.resize(static_cast<std::size_t>(length));
  for (TaskCount i = 0; i + 1 < length; ++i) {
    dag.children[static_cast<std::size_t>(i)].push_back(
        static_cast<NodeId>(i + 1));
  }
  return dag;
}

DagStructure diamond(TaskCount width) {
  require_positive(width, "diamond width");
  DagStructure dag;
  const std::size_t n = static_cast<std::size_t>(width) + 2;
  dag.children.resize(n);
  const NodeId sink = static_cast<NodeId>(n - 1);
  for (TaskCount i = 0; i < width; ++i) {
    const NodeId mid = static_cast<NodeId>(i + 1);
    dag.children[0].push_back(mid);
    dag.children[mid].push_back(sink);
  }
  return dag;
}

DagStructure barrier_profile(const std::vector<TaskCount>& widths) {
  DagStructure dag;
  std::size_t total = 0;
  for (const TaskCount w : widths) {
    require_positive(w, "profile level width");
    total += static_cast<std::size_t>(w);
  }
  dag.children.resize(total);
  std::size_t level_start = 0;
  for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
    const std::size_t w = static_cast<std::size_t>(widths[l]);
    const std::size_t next_start = level_start + w;
    const std::size_t next_w = static_cast<std::size_t>(widths[l + 1]);
    for (std::size_t i = 0; i < w; ++i) {
      auto& edges = dag.children[level_start + i];
      edges.reserve(next_w);
      for (std::size_t j = 0; j < next_w; ++j) {
        edges.push_back(static_cast<NodeId>(next_start + j));
      }
    }
    level_start = next_start;
  }
  return dag;
}

DagStructure fork_join(const std::vector<PhaseSpec>& phases) {
  DagStructure dag;
  std::size_t total = 0;
  for (const PhaseSpec& p : phases) {
    require_positive(p.width, "phase width");
    if (p.levels < 1) {
      throw std::invalid_argument("builders: phase length must be >= 1");
    }
    total += static_cast<std::size_t>(p.width) *
             static_cast<std::size_t>(p.levels);
  }
  dag.children.resize(total);

  // `frontier` holds the tasks whose completion gates the next phase.
  std::vector<NodeId> frontier;
  std::size_t next_id = 0;
  for (const PhaseSpec& p : phases) {
    const std::size_t w = static_cast<std::size_t>(p.width);
    std::vector<NodeId> heads(w);
    std::vector<NodeId> tails(w);
    for (std::size_t b = 0; b < w; ++b) {
      // Build one branch: a chain of p.levels tasks.
      NodeId prev = static_cast<NodeId>(next_id++);
      heads[b] = prev;
      for (Steps k = 1; k < p.levels; ++k) {
        const NodeId cur = static_cast<NodeId>(next_id++);
        dag.children[prev].push_back(cur);
        prev = cur;
      }
      tails[b] = prev;
    }
    // Fork: every frontier task precedes every branch head.  (The frontier
    // is a single task except when the job starts with a parallel phase or
    // two parallel phases are adjacent, in which case this degenerates to a
    // barrier join-fork.)
    for (const NodeId f : frontier) {
      for (const NodeId h : heads) {
        dag.children[f].push_back(h);
      }
    }
    frontier = std::move(tails);
  }
  return dag;
}

DagStructure random_layered(util::Rng& rng, Steps levels, TaskCount max_width,
                            double edge_prob) {
  if (levels < 1) {
    throw std::invalid_argument("builders: levels must be >= 1");
  }
  require_positive(max_width, "max_width");
  std::vector<std::vector<NodeId>> layers(static_cast<std::size_t>(levels));
  std::size_t next_id = 0;
  for (auto& layer : layers) {
    const auto w = static_cast<std::size_t>(rng.uniform_int(1, max_width));
    layer.resize(w);
    for (auto& id : layer) {
      id = static_cast<NodeId>(next_id++);
    }
  }
  DagStructure dag;
  dag.children.resize(next_id);
  for (std::size_t l = 1; l < layers.size(); ++l) {
    const auto& parents = layers[l - 1];
    for (const NodeId child : layers[l]) {
      bool has_parent = false;
      for (const NodeId parent : parents) {
        if (rng.bernoulli(edge_prob)) {
          dag.children[parent].push_back(child);
          has_parent = true;
        }
      }
      if (!has_parent) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(parents.size()) - 1));
        dag.children[parents[pick]].push_back(child);
      }
    }
  }
  return dag;
}

DagStructure grid(Steps rows, Steps cols) {
  if (rows < 1 || cols < 1) {
    throw std::invalid_argument("builders: grid dimensions must be >= 1");
  }
  DagStructure dag;
  const auto r = static_cast<std::size_t>(rows);
  const auto c = static_cast<std::size_t>(cols);
  dag.children.resize(r * c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      const std::size_t id = i * c + j;
      if (i + 1 < r) {
        dag.children[id].push_back(static_cast<NodeId>(id + c));
      }
      if (j + 1 < c) {
        dag.children[id].push_back(static_cast<NodeId>(id + 1));
      }
    }
  }
  return dag;
}

namespace {

/// Appends a sub-DAG and returns its (entry, exit) node ids.  The sub-DAG
/// always has a unique entry and exit (series-parallel with explicit
/// fork/join tasks).
std::pair<NodeId, NodeId> build_sp(util::Rng& rng, int depth, int max_branch,
                                   DagStructure& dag) {
  auto new_node = [&dag]() {
    dag.children.emplace_back();
    return static_cast<NodeId>(dag.children.size() - 1);
  };
  if (depth <= 0) {
    const NodeId task = new_node();
    return {task, task};
  }
  const auto shape = rng.uniform_int(0, 2);
  if (shape == 0) {  // single task
    const NodeId task = new_node();
    return {task, task};
  }
  if (shape == 1) {  // series composition
    const auto [entry_a, exit_a] = build_sp(rng, depth - 1, max_branch, dag);
    const auto [entry_b, exit_b] = build_sp(rng, depth - 1, max_branch, dag);
    dag.children[exit_a].push_back(entry_b);
    return {entry_a, exit_b};
  }
  // Parallel composition between explicit fork and join tasks.
  const NodeId fork_task = new_node();
  const NodeId join_task = new_node();
  const auto branches = rng.uniform_int(2, max_branch);
  for (std::int64_t b = 0; b < branches; ++b) {
    const auto [entry, exit] = build_sp(rng, depth - 1, max_branch, dag);
    dag.children[fork_task].push_back(entry);
    dag.children[exit].push_back(join_task);
  }
  return {fork_task, join_task};
}

}  // namespace

DagStructure expand_weighted(const DagStructure& structure,
                             const std::vector<Steps>& durations) {
  if (durations.size() != structure.node_count()) {
    throw std::invalid_argument(
        "expand_weighted: one duration per task required");
  }
  std::size_t total = 0;
  for (const Steps d : durations) {
    if (d < 1) {
      throw std::invalid_argument("expand_weighted: duration must be >= 1");
    }
    total += static_cast<std::size_t>(d);
  }
  // First link (head) of each task's chain; the tail is head + dur - 1.
  std::vector<NodeId> head(structure.node_count());
  std::size_t next_id = 0;
  for (std::size_t i = 0; i < structure.node_count(); ++i) {
    head[i] = static_cast<NodeId>(next_id);
    next_id += static_cast<std::size_t>(durations[i]);
  }
  DagStructure out;
  out.children.resize(total);
  for (std::size_t i = 0; i < structure.node_count(); ++i) {
    const NodeId first = head[i];
    const auto tail =
        static_cast<NodeId>(first + static_cast<NodeId>(durations[i]) - 1);
    for (NodeId link = first; link < tail; ++link) {
      out.children[link].push_back(link + 1);
    }
    for (const NodeId child : structure.children[i]) {
      out.children[tail].push_back(head[child]);
    }
  }
  return out;
}

DagStructure series_parallel(util::Rng& rng, int depth, int max_branch) {
  if (depth < 0) {
    throw std::invalid_argument("builders: series-parallel depth must be >= 0");
  }
  if (max_branch < 2) {
    throw std::invalid_argument("builders: max_branch must be >= 2");
  }
  DagStructure dag;
  build_sp(rng, depth, max_branch, dag);
  return dag;
}

}  // namespace abg::dag::builders
