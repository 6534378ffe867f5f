#include "graph/memplan.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "graph/op_schema.h"

namespace slapo {
namespace graph {

namespace {

std::atomic<int> g_enabled_override{-1}; // -1 = unset, else 0/1

bool
envEnabled()
{
    static const bool resolved = [] {
        const char* env = std::getenv("SLAPO_MEMPLAN");
        if (env != nullptr) {
            const std::string_view v(env);
            if (v == "0" || v == "off" || v == "false") {
                return false;
            }
        }
        return true;
    }();
    return resolved;
}

std::string
shapeSignature(const std::vector<Shape>& input_shapes)
{
    std::ostringstream os;
    for (const Shape& s : input_shapes) {
        for (int64_t d : s) {
            os << d << "x";
        }
        os << ";";
    }
    return os.str();
}

} // namespace

bool
memPlanEnabled()
{
    const int forced = g_enabled_override.load(std::memory_order_relaxed);
    if (forced >= 0) {
        return forced != 0;
    }
    return envEnabled();
}

void
setMemPlanEnabled(bool enabled)
{
    g_enabled_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

std::shared_ptr<const MemPlan>
buildMemPlan(const Graph& g, const std::vector<Shape>& input_shapes)
{
    (void)input_shapes; // liveness and eligibility are structural; the
                        // signature only partitions the cache.
    auto plan = std::make_shared<MemPlan>();
    plan->graph_version = g.version();
    plan->actions.resize(static_cast<size_t>(g.idBound()));

    const std::vector<Node*> nodes = g.nodes();

    // Last use of each producer, as a position in program order. A node
    // with no users "dies" at its own position (dead code still executes;
    // its value is dropped immediately).
    std::vector<int64_t> last_use(static_cast<size_t>(g.idBound()), -1);
    for (size_t pos = 0; pos < nodes.size(); ++pos) {
        const Node* n = nodes[pos];
        if (n->id() >= 0) {
            last_use[n->id()] = static_cast<int64_t>(pos);
        }
        for (const Node* in : n->inputs()) {
            last_use[in->id()] = static_cast<int64_t>(pos);
        }
    }

    const Node* output = g.outputNode();
    for (size_t pos = 0; pos < nodes.size(); ++pos) {
        const Node* n = nodes[pos];
        if (n == output) {
            continue; // outputs are returned, never released
        }
        // Collect producers whose last use is this position. The output
        // node's operands are excluded above because their last_use is
        // the output's position, not an interior one.
        for (const Node* in : n->inputs()) {
            if (last_use[in->id()] == static_cast<int64_t>(pos) &&
                nodes[last_use[in->id()]] != output) {
                auto& ra = plan->actions[n->id()].release_after;
                if (std::find(ra.begin(), ra.end(), in->id()) == ra.end()) {
                    ra.push_back(in->id());
                }
            }
        }
        // Unused values die right after their own execution.
        if (last_use[n->id()] == static_cast<int64_t>(pos)) {
            plan->actions[n->id()].release_after.push_back(n->id());
        }

        // In-place eligibility: a CallOp with an in-place twin in the op
        // table whose first input
        //  - dies at this node (so the move below is its last read),
        //  - appears exactly once in the input list (add(x, x) must not
        //    move x out from under its second read),
        //  - has a single output and the same declared shape as ours.
        if (n->kind() != NodeKind::CallOp || n->inputs().empty() ||
            opSchema(n->op()).inplace == nullptr) {
            continue;
        }
        const Node* src = n->inputs()[0];
        const bool sole_use =
            std::count(n->inputs().begin(), n->inputs().end(), src) == 1;
        bool shapes_ok = src->numOutputs() == 1 && !n->shapes().empty() &&
                         n->shape() == src->shape();
        // Binary elementwise: in-place only without broadcasting.
        if (shapes_ok && n->inputs().size() > 1) {
            for (size_t i = 1; i < n->inputs().size(); ++i) {
                shapes_ok &= n->inputs()[i]->numOutputs() == 1 &&
                             n->inputs()[i]->shape() == n->shape();
            }
        }
        if (sole_use && shapes_ok &&
            last_use[src->id()] == static_cast<int64_t>(pos)) {
            plan->actions[n->id()].inplace = true;
        }
    }
    for (const MemPlan::NodeActions& act : plan->actions) {
        plan->release_count +=
            static_cast<int64_t>(act.release_after.size());
        plan->inplace_count += act.inplace ? 1 : 0;
    }
    return plan;
}

std::shared_ptr<const MemPlan>
memPlanFor(const Graph& g, const std::vector<Shape>& input_shapes)
{
    MemPlanCache& cache = g.memPlanCache();
    const std::string sig = shapeSignature(input_shapes);
    {
        std::lock_guard<std::mutex> lock(cache.mu);
        if (cache.version == g.version()) {
            auto it = cache.plans.find(sig);
            if (it != cache.plans.end()) {
                return it->second;
            }
        }
    }
    std::shared_ptr<const MemPlan> plan = buildMemPlan(g, input_shapes);
    {
        std::lock_guard<std::mutex> lock(cache.mu);
        if (cache.version != g.version()) {
            // Schedule mutation since the entries were built (or first
            // fill): drop the stale generation.
            cache.plans.clear();
            cache.version = g.version();
        }
        cache.plans[sig] = plan;
    }
    return plan;
}

} // namespace graph
} // namespace slapo
