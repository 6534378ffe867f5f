/**
 * @file
 * Forward interpreter for traced graphs.
 *
 * Once a module has been `.trace()`d (and possibly rewritten by fuse /
 * replace / checkpoint primitives), Module::call executes the graph by
 * dispatching every node through the same op-table dispatch nn::F uses
 * (nn::dispatchOp) — so eager numerics, meta shape propagation, and cost
 * profiling all keep working on scheduled graphs exactly as they do on
 * unscheduled forwards.
 */
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "nn/value.h"
#include "obs/mem_profiler.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace slapo {
namespace nn {

class Module;

/** Execute `graph` (owned by `self`) on `inputs`, returning outputs. */
std::vector<Value> interpretGraph(const graph::Graph& graph, Module* self,
                                  const std::vector<Value>& inputs);

/**
 * Execute a single CallOp node given its input values (shared by the
 * interpreter and the autograd engine): nn::dispatchOp over the node's
 * own attributes.
 */
Value interpretOp(const graph::Node& node, const std::vector<Value>& inputs);

/**
 * Per-node observability hook shared by the forward interpreter and the
 * autograd loops: opens a trace span and, on close, folds the elapsed
 * time into the installed OpProfiler as row `op` + `suffix` under the
 * thread's current module path. For a graph node it also tags the thread
 * for the memory profiler, so tensors allocated inside the kernel
 * attribute to the node's id and stamped primitive. Disabled cost is
 * three relaxed loads in the constructor.
 */
class NodeTimer
{
  public:
    /** Time `node` as row `op` + `suffix` ("" forward, ".bwd" backward). */
    NodeTimer(const char* op, const graph::Node& node, const char* suffix = "")
        : NodeTimer(op, suffix, node.provenance().primitive, &node)
    {
    }

    /** Time a row attributed to `primitive`, which must outlive the
     * timer; `node` is null for rows with no graph node behind them (the
     * .sync() boundaries). */
    NodeTimer(const char* op, const char* suffix, const std::string& primitive,
              const graph::Node* node = nullptr)
        : primitive_(&primitive), profiler_(obs::OpProfiler::current())
    {
        if (node != nullptr) {
            mem_scope_.emplace(node->id(), primitive_);
        }
        if (profiler_ == nullptr && !obs::tracingEnabled()) {
            return;
        }
        name_ = op;
        name_ += suffix;
        span_.emplace(name_, "op"); // copied: the event outlives name_
        if (node != nullptr) {
            span_->arg("node", node->name());
        }
        if (!obs::ModuleScope::currentPath().empty()) {
            span_->arg("module", obs::ModuleScope::currentPath());
        }
        if (!primitive_->empty()) {
            span_->arg("primitive", *primitive_);
        }
        start_ = std::chrono::steady_clock::now();
    }

    ~NodeTimer()
    {
        if (profiler_ != nullptr) {
            const auto elapsed = std::chrono::steady_clock::now() - start_;
            profiler_->record(
                name_, obs::ModuleScope::currentPath(), *primitive_,
                std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                    .count());
        }
    }

    NodeTimer(const NodeTimer&) = delete;
    NodeTimer& operator=(const NodeTimer&) = delete;

  private:
    const std::string* primitive_; ///< outlives the timer
    std::optional<obs::MemNodeScope> mem_scope_;
    obs::OpProfiler* profiler_ = nullptr;
    std::string name_;
    std::optional<obs::TraceSpan> span_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace nn
} // namespace slapo
