/**
 * @file
 * Static memory planner for graph execution.
 *
 * A liveness pass over a traced graph produces a per-node plan the
 * executors consult on the hot path:
 *  - `release_after`: environment entries whose producing node saw its
 *    last use at this node — the executor drops them immediately, so a
 *    value's storage returns to the caching allocator (tensor/alloc.h)
 *    as soon as dataflow allows instead of at end of graph;
 *  - `inplace`: this CallOp's op has an in-place twin in the op table
 *    (graph/op_schema.h), its output matches input 0's shape and its
 *    input 0 dies here, so the twin may overwrite input 0's buffer.
 *    The executor still guards with a runtime storage-unique check
 *    (Tensor::storageUseCount), so aliases — reshape views, caller-held
 *    inputs, parameters — are never mutated; when the guard fails the op
 *    simply runs out-of-place.
 *
 * Plans are cached inside the Graph (Graph::memPlanCache), keyed by the
 * input-shape signature and invalidated when a schedule primitive
 * mutates the graph (Graph::version). `SLAPO_MEMPLAN=0` (or `off`)
 * disables planning globally; results are bit-identical either way —
 * in-place kernels run the exact same per-element arithmetic as their
 * out-of-place twins.
 */
#pragma once

#include <memory>
#include <vector>

#include "graph/graph.h"

namespace slapo {
namespace graph {

/** Per-node executor actions computed by the liveness pass. */
struct MemPlan
{
    struct NodeActions
    {
        /** Node ids whose env entry dies once this node has executed. */
        std::vector<int64_t> release_after;
        /** Output may reuse input 0's storage (see file comment). */
        bool inplace = false;
    };

    /** Dense, indexed by node id (size == Graph::idBound() at build). */
    std::vector<NodeActions> actions;

    /** Graph::version() this plan was built against. */
    uint64_t graph_version = 0;

    /** Total mid-graph release points (Σ |release_after|) — how many env
     * entries the plan returns to the pool before end of graph. Summary
     * statistic for trace/report consumers (obs/mem_profiler.h). */
    int64_t release_count = 0;

    /** Nodes marked for in-place reuse of input 0's storage. */
    int64_t inplace_count = 0;

    const NodeActions*
    at(int64_t node_id) const
    {
        if (node_id < 0 || node_id >= static_cast<int64_t>(actions.size())) {
            return nullptr;
        }
        return &actions[node_id];
    }
};

/** Planner enablement: SLAPO_MEMPLAN env (default on) unless overridden. */
bool memPlanEnabled();

/** Programmatic override of SLAPO_MEMPLAN (tests; thread-safe). */
void setMemPlanEnabled(bool enabled);

/** Build a plan for `g` (uncached). `input_shapes` are the runtime
 * placeholder shapes; statically ineligible nodes are never marked
 * in-place, the executor re-guards the rest. */
std::shared_ptr<const MemPlan>
buildMemPlan(const Graph& g, const std::vector<Shape>& input_shapes);

/** Cached lookup: serves from Graph::memPlanCache when the graph version
 * and input-shape signature match, rebuilding otherwise. */
std::shared_ptr<const MemPlan>
memPlanFor(const Graph& g, const std::vector<Shape>& input_shapes);

} // namespace graph
} // namespace slapo
