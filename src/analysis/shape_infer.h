/**
 * @file
 * Static shape / dtype inference over traced graphs (zero execution).
 *
 * Re-derives every op node's output shape by running the op table's own
 * arity check and shape rule (graph/op_schema.h) — the rule nn::dispatchOp
 * runs before every kernel — on meta operands built from the declared
 * placeholder and parameter shapes, and compares the result against the
 * shape the node *declares*. A schedule rewrite that left the graph
 * inconsistent — a `.replace()` whose subgraph emits the wrong extent, a
 * fused kernel whose inner graph no longer matches its node — surfaces
 * as a diagnostic naming the node, its Provenance stamp, and the module
 * path, instead of a kernel assertion deep inside a training step. Only
 * all-gather and reduce-scatter keep a rule of their own here: their
 * extent depends on the tracing-time world size, which the graph does
 * not record, so the checker tests divisibility instead.
 *
 * Dtype inference is a two-point lattice {Any, Float} driven by the op
 * table's real-output column: ops that produce definitely-real values
 * (softmax, gelu, matmul, ...) taint their output, and consumers that
 * need integral inputs (embedding ids, cross-entropy targets) report
 * when fed a tainted value.
 *
 * Codes: SLP101 node shape contradiction, SLP102 parameter shape
 * mismatch, SLP103 impossible op inputs, SLP110 real-valued embedding
 * ids, SLP111 real-valued cross-entropy targets.
 */
#pragma once

#include "analysis/diagnostic.h"
#include "graph/graph.h"
#include "nn/module.h"

namespace slapo {
namespace analysis {

/**
 * Infer and check one traced graph. `module_path` is the dotted schedule
 * path of the module owning the graph (diagnostic location only).
 */
void inferGraphShapes(const graph::Graph& graph,
                      const std::string& module_path, Diagnostics& diags);

/** Run inferGraphShapes over every traced graph in the module tree. */
void inferShapes(nn::Module& root, Diagnostics& diags);

} // namespace analysis
} // namespace slapo
