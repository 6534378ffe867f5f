#include "analysis/memplan_audit.h"

#include <algorithm>

#include "graph/op_schema.h"
#include "nn/module.h"

namespace slapo {
namespace analysis {

namespace {

using graph::MemPlan;
using graph::Node;
using graph::NodeKind;

Diagnostic&
reportAt(Diagnostics& diags, const char* code, std::string message,
         const std::string& module_path, const Node* node)
{
    Diagnostic& d =
        diags.add(code, Severity::Error, std::move(message), module_path);
    if (node != nullptr) {
        d.node = node->name();
        d.node_id = node->id();
        d.primitive = node->provenance().primitive;
    }
    return d;
}

} // namespace

void
auditMemPlan(const graph::Graph& graph, const MemPlan& plan,
             const std::string& module_path, Diagnostics& diags)
{
    const std::vector<Node*> nodes = graph.nodes();
    const Node* output = graph.outputNode();
    const int64_t bound = graph.idBound();

    // Independent liveness: recompute the last program-order use of
    // every producing node (a value with no consumers dies at its own
    // position). Divergence between this and the plan is the bug class
    // the audit exists to catch.
    std::vector<int64_t> last_use(static_cast<size_t>(bound), -1);
    std::vector<const Node*> by_id(static_cast<size_t>(bound), nullptr);
    std::vector<bool> output_operand(static_cast<size_t>(bound), false);
    for (size_t pos = 0; pos < nodes.size(); ++pos) {
        const Node* n = nodes[pos];
        if (n->id() >= 0 && n->id() < bound) {
            last_use[n->id()] = static_cast<int64_t>(pos);
            by_id[n->id()] = n;
        }
        for (const Node* in : n->inputs()) {
            if (in->id() >= 0 && in->id() < bound) {
                last_use[in->id()] = static_cast<int64_t>(pos);
                if (n == output) {
                    output_operand[in->id()] = true;
                }
            }
        }
    }
    if (output != nullptr && output->id() >= 0 && output->id() < bound) {
        output_operand[output->id()] = true;
    }

    if (static_cast<int64_t>(plan.actions.size()) > bound) {
        diags.add("SLP404", Severity::Error,
                  "memory plan has " + std::to_string(plan.actions.size()) +
                      " action slots for an id bound of " +
                      std::to_string(bound),
                  module_path);
    }

    std::vector<bool> released(static_cast<size_t>(bound), false);
    for (size_t pos = 0; pos < nodes.size(); ++pos) {
        const Node* n = nodes[pos];
        const MemPlan::NodeActions* act = plan.at(n->id());
        if (act == nullptr) {
            continue;
        }
        for (int64_t victim : act->release_after) {
            if (victim < 0 || victim >= bound || by_id[victim] == nullptr) {
                reportAt(diags, "SLP404",
                         "release of id " + std::to_string(victim) +
                             ", which is not a node of this graph",
                         module_path, n);
                continue;
            }
            if (released[victim]) {
                reportAt(diags, "SLP404",
                         "value '" + by_id[victim]->name() +
                             "' released twice",
                         module_path, n);
                continue;
            }
            released[victim] = true;
            if (output_operand[victim]) {
                reportAt(diags, "SLP402",
                         "release of '" + by_id[victim]->name() +
                             "', which is a graph output — the caller "
                             "still owns it",
                         module_path, n);
                continue;
            }
            if (last_use[victim] > static_cast<int64_t>(pos)) {
                reportAt(diags, "SLP401",
                         "release of '" + by_id[victim]->name() +
                             "' while node '" +
                             nodes[last_use[victim]]->name() +
                             "' still consumes it later",
                         module_path, n);
            }
        }
        if (!act->inplace) {
            continue;
        }
        // In-place marks must satisfy the planner's full contract; any
        // violation can alias a live buffer into a kernel that writes it.
        if (n->kind() != NodeKind::CallOp || n->inputs().empty() ||
            graph::opSchema(n->op()).inplace == nullptr) {
            reportAt(diags, "SLP403",
                     "in-place mark on a node whose op has no in-place "
                     "twin",
                     module_path, n);
            continue;
        }
        const Node* src = n->inputs()[0];
        if (std::count(n->inputs().begin(), n->inputs().end(), src) != 1) {
            reportAt(diags, "SLP403",
                     "in-place mark would move '" + src->name() +
                         "' out from under its second read in the same "
                         "input list",
                     module_path, n);
            continue;
        }
        bool shapes_ok = src->numOutputs() == 1 && !n->shapes().empty() &&
                         !src->shapes().empty() &&
                         n->shapes()[0] == src->shapes()[0];
        for (size_t i = 1; shapes_ok && i < n->inputs().size(); ++i) {
            shapes_ok = n->inputs()[i]->numOutputs() == 1 &&
                        !n->inputs()[i]->shapes().empty() &&
                        n->inputs()[i]->shapes()[0] == n->shapes()[0];
        }
        if (!shapes_ok) {
            reportAt(diags, "SLP403",
                     "in-place mark with mismatched operand shapes "
                     "(broadcast reads the input after the output row "
                     "would have overwritten it)",
                     module_path, n);
            continue;
        }
        if (src->id() >= 0 && src->id() < bound &&
            last_use[src->id()] > static_cast<int64_t>(pos)) {
            reportAt(diags, "SLP403",
                     "unsafe in-place mark: input '" + src->name() +
                         "' is still live — node '" +
                         nodes[last_use[src->id()]]->name() +
                         "' reads it after this op would have "
                         "overwritten it",
                     module_path, n);
        }
    }
}

void
auditMemPlans(nn::Module& root, Diagnostics& diags)
{
    for (auto& [path, m] : root.namedModules()) {
        if (!m->meta().traced_graph) {
            continue;
        }
        graph::Graph& g = *m->meta().traced_graph;
        std::vector<Shape> input_shapes;
        for (const Node* p : g.placeholders()) {
            input_shapes.push_back(p->shapes().empty() ? Shape{}
                                                       : p->shapes()[0]);
        }
        auto plan = graph::memPlanFor(g, input_shapes);
        if (plan) {
            auditMemPlan(g, *plan, path, diags);
        }
        for (const Node* node : g.nodes()) {
            if (node->kind() == graph::NodeKind::FusedOp &&
                node->subgraph() != nullptr) {
                graph::Graph& sub = *node->subgraph();
                std::vector<Shape> sub_shapes;
                for (const Node* p : sub.placeholders()) {
                    sub_shapes.push_back(
                        p->shapes().empty() ? Shape{} : p->shapes()[0]);
                }
                auto sub_plan = graph::memPlanFor(sub, sub_shapes);
                if (sub_plan) {
                    auditMemPlan(sub, *sub_plan, path, diags);
                }
            }
        }
    }
}

} // namespace analysis
} // namespace slapo
