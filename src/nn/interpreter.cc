#include "nn/interpreter.h"

#include <optional>

#include "graph/memplan.h"
#include "graph/op_schema.h"
#include "nn/context.h"
#include "nn/functional.h"
#include "nn/module.h"
#include "obs/mem_profiler.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace slapo {
namespace nn {

Value
interpretOp(const graph::Node& node, const std::vector<Value>& inputs)
{
    return dispatchOp(node.op(), node.attrs(), inputs);
}

std::vector<Value>
interpretGraph(const graph::Graph& graph, Module* self,
               const std::vector<Value>& inputs)
{
    SLAPO_CHECK(TracingState::current() == nullptr,
                "cannot interpret a traced graph while tracing; re-trace the "
                "module instead of nesting");
    // Dense per-node-id environment: node ids are graph-unique and bounded
    // by idBound(), so a flat vector replaces the former std::map (one
    // indexed load per use instead of a tree walk on the hot loop).
    std::vector<std::vector<Value>> env(graph.idBound());
    std::vector<char> defined(graph.idBound(), 0);
    auto put = [&](const graph::Node* n, std::vector<Value> values) {
        SLAPO_ASSERT(n->id() >= 0 &&
                         n->id() < static_cast<int64_t>(env.size()),
                     "interpret: node id out of range for " << n->name());
        env[n->id()] = std::move(values);
        defined[n->id()] = 1;
    };

    const auto placeholders = graph.placeholders();
    SLAPO_CHECK(placeholders.size() == inputs.size(),
                "graph expects " << placeholders.size() << " inputs, got "
                                 << inputs.size());
    for (size_t i = 0; i < placeholders.size(); ++i) {
        put(placeholders[i], {inputs[i]});
    }

    auto first = [&](const graph::Node* n) -> const Value& {
        SLAPO_ASSERT(n->id() >= 0 &&
                         n->id() < static_cast<int64_t>(env.size()) &&
                         defined[n->id()],
                     "interpret: undefined node " << n->name());
        return env[n->id()][0];
    };

    // Memory plan: per-node env releases at last use plus in-place
    // rewrites (graph/memplan.h). Cached in the graph, keyed by the
    // runtime input shapes.
    std::shared_ptr<const graph::MemPlan> plan;
    if (graph::memPlanEnabled()) {
        std::vector<Shape> in_shapes;
        in_shapes.reserve(inputs.size());
        for (const Value& v : inputs) {
            in_shapes.push_back(v.shape());
        }
        plan = graph::memPlanFor(graph, in_shapes);
        if (plan != nullptr && obs::tracingEnabled()) {
            obs::TraceSpan span("memplan.plan", "mem");
            span.arg("release_points", plan->release_count);
            span.arg("inplace_nodes", plan->inplace_count);
        }
    }

    Profiler* prof = Profiler::current();

    for (graph::Node* node : graph.nodes()) {
        const graph::MemPlan::NodeActions* act =
            plan != nullptr ? plan->at(node->id()) : nullptr;
        switch (node->kind()) {
          case graph::NodeKind::Placeholder:
            break;
          case graph::NodeKind::GetParam: {
            SLAPO_ASSERT(node->module() != nullptr,
                         "get_param without module binding");
            put(node, {Value(node->module()->paramTensor(node->target()))});
            break;
          }
          case graph::NodeKind::CallOp: {
            obs::RowTimer timer(opKindName(node->op()), *node);
            // A .checkpoint(subgraph) node: flag its kernel record (the
            // memory model drops it from activations) and account the
            // region boundary once, at entry nodes.
            const bool ckpt_scope = node->checkpointed() && prof != nullptr;
            if (ckpt_scope) {
                bool region_entry = true;
                double boundary_elems = 0;
                for (graph::Node* in : node->inputs()) {
                    region_entry &= !in->checkpointed();
                    boundary_elems +=
                        static_cast<double>(numelOf(in->shape()));
                }
                if (region_entry) {
                    prof->recordCheckpointBoundary(boundary_elems);
                }
                prof->beginModule("ckpt_subgraph", /*checkpointed=*/true);
            }

            // Planner in-place rewrite: input 0 dies here, so move it
            // out of the env — if no aliases remain (no reshape views,
            // caller handles, or parameters share the storage), the
            // kernel may overwrite its buffer. Any failed guard falls
            // back to the ordinary out-of-place execution using the
            // moved handle, so results are identical either way.
            if (act != nullptr && act->inplace) {
                graph::Node* src = node->inputs()[0];
                SLAPO_ASSERT(defined[src->id()],
                             "interpret: undefined node " << src->name());
                Value moved = std::move(env[src->id()][0]);
                env[src->id()].clear();
                defined[src->id()] = 0;

                Tensor& t = moved.tensor();
                const Tensor* operands[2] = {&t, nullptr};
                bool ok = t.materialized() && t.shape() == node->shape() &&
                          t.storageUseCount() == 1;
                if (ok && node->inputs().size() > 1) {
                    const Tensor& b = first(node->inputs()[1]).tensor();
                    ok = b.materialized() && b.shape() == t.shape();
                    operands[1] = &b;
                }
                const graph::OpSchema& op = graph::opSchema(node->op());
                if (ok && op.inplace != nullptr) {
                    const size_t arity = operands[1] != nullptr ? 2 : 1;
                    op.inplace(t, graph::OpArgs({operands, arity},
                                                node->attrs(), op.name));
                    put(node, {std::move(moved)});
                } else {
                    std::vector<Value> ins;
                    ins.reserve(node->inputs().size());
                    ins.push_back(std::move(moved));
                    for (size_t i = 1; i < node->inputs().size(); ++i) {
                        ins.push_back(first(node->inputs()[i]));
                    }
                    put(node, {interpretOp(*node, ins)});
                }
            } else {
                std::vector<Value> ins;
                ins.reserve(node->inputs().size());
                for (graph::Node* in : node->inputs()) {
                    ins.push_back(first(in));
                }
                put(node, {interpretOp(*node, ins)});
            }
            if (ckpt_scope) {
                prof->endModule();
            }
            break;
          }
          case graph::NodeKind::CallModule: {
            Module* target = node->module();
            SLAPO_ASSERT(target != nullptr, "call_module without module");
            std::vector<Value> ins;
            for (graph::Node* in : node->inputs()) {
                ins.push_back(first(in));
            }
            if (prof) prof->beginModule(node->target(), false);
            {
                // Attribute everything the submodule runs to its dotted
                // path; an untraced (leaf) module executes eagerly with
                // no inner CallOp nodes, so time it as one record itself.
                obs::ModuleScope scope(node->target());
                std::optional<obs::RowTimer> timer;
                if (target->meta().traced_graph == nullptr) {
                    timer.emplace(target->typeName().c_str(), *node);
                }
                put(node, target->call(ins));
            }
            if (prof) prof->endModule();
            break;
          }
          case graph::NodeKind::FusedOp: {
            obs::RowTimer timer(node->name().c_str(), *node);
            std::vector<Value> ins;
            for (graph::Node* in : node->inputs()) {
                ins.push_back(first(in));
            }
            // A fused kernel is one launch: collapse its inner ops into a
            // single profiler record, then run the encapsulated subgraph.
            if (prof) {
                prof->beginKernelScope(node->name(), /*recompute_free=*/true);
            }
            std::vector<Value> outs =
                interpretGraph(*node->subgraph(), self, ins);
            if (prof) prof->endKernelScope();
            put(node, std::move(outs));
            break;
          }
          case graph::NodeKind::TupleGet: {
            const graph::Node* src = node->inputs()[0];
            SLAPO_ASSERT(defined[src->id()],
                         "interpret: undefined node " << src->name());
            const auto& producer = env[src->id()];
            const int64_t index = node->attrInt("index");
            SLAPO_ASSERT(index >= 0 &&
                             index < static_cast<int64_t>(producer.size()),
                         "tuple_get index out of range");
            put(node, {producer[index]});
            break;
          }
          case graph::NodeKind::Output: {
            std::vector<Value> outs;
            for (graph::Node* in : node->inputs()) {
                outs.push_back(first(in));
            }
            return outs;
          }
        }
        // Drop env entries whose producing node saw its last use here, so
        // the storage returns to the allocator pool mid-graph instead of
        // at function exit. With tracing on, each release point becomes a
        // timeline event so a memory-over-time view shows *where* in the
        // graph the planner returns storage.
        if (act != nullptr && !act->release_after.empty()) {
            if (obs::tracingEnabled()) {
                int64_t bytes = 0;
                for (int64_t id : act->release_after) {
                    for (const Value& v : env[id]) {
                        if (v.tensor().materialized()) {
                            bytes += v.tensor().bytes();
                        }
                    }
                }
                obs::TraceSpan span("memplan.release", "mem");
                span.arg("after_node", node->name());
                span.arg("values",
                         static_cast<int64_t>(act->release_after.size()));
                span.arg("bytes", bytes);
            }
            for (int64_t id : act->release_after) {
                env[id].clear();
                defined[id] = 0;
            }
            if (obs::memProfilingEnabled() && obs::tracingEnabled()) {
                obs::traceCounter("mem.live_bytes", obs::memLiveBytes());
            }
        }
    }
    SLAPO_THROW("interpretGraph: graph has no output node");
}

} // namespace nn
} // namespace slapo
