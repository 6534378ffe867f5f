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

#include <vector>

#include "graph/graph.h"
#include "nn/value.h"

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

} // namespace nn
} // namespace slapo
