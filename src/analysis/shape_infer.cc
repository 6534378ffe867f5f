#include "analysis/shape_infer.h"

#include <optional>

#include "graph/op_schema.h"

namespace slapo {
namespace analysis {

namespace {

using graph::Node;
using graph::NodeKind;
using graph::OpKind;

/** Attach node location + provenance to a finding. */
Diagnostic&
report(Diagnostics& diags, const char* code, Severity severity,
       std::string message, const std::string& module_path, const Node* node)
{
    Diagnostic& d =
        diags.add(code, severity, std::move(message), module_path);
    d.node = node->name();
    d.node_id = node->id();
    d.primitive = node->provenance().primitive;
    return d;
}

int64_t
normalizeAxis(int64_t axis, size_t rank)
{
    return axis < 0 ? axis + static_cast<int64_t>(rank) : axis;
}

bool
axisInRange(int64_t axis, size_t rank)
{
    return axis >= 0 && axis < static_cast<int64_t>(rank);
}

/** Per-node inference state: a meta tensor of the first declared output
 * (what consumers' shape rules see) and the real-valued taint per output. */
struct ValueInfo
{
    std::optional<Tensor> value;
    std::vector<bool> is_float;
};

class GraphInfer
{
  public:
    GraphInfer(const graph::Graph& graph, const std::string& module_path,
               Diagnostics& diags)
        : graph_(graph), path_(module_path), diags_(diags)
    {
    }

    void run();

  private:
    const ValueInfo* infoOf(const Node* node) const
    {
        auto it = info_.find(node);
        return it == info_.end() ? nullptr : &it->second;
    }

    /** Meta value of input `i`, or nullptr when its shape is unknown. */
    const Tensor* operand(const Node* node, size_t i) const
    {
        const ValueInfo* info = infoOf(node->inputs()[i]);
        return info != nullptr && info->value ? &*info->value : nullptr;
    }

    bool inFloat(const Node* node, size_t i) const
    {
        const ValueInfo* info = infoOf(node->inputs()[i]);
        return info != nullptr && !info->is_float.empty() &&
               info->is_float[0];
    }

    void badInputs(const Node* node, const std::string& detail)
    {
        report(diags_, "SLP103", Severity::Error,
               "impossible inputs for op '" + node->signature() + "': " +
                   detail,
               path_, node);
    }

    /** Compare the computed shape against the node's declared shape. */
    void checkDeclared(const Node* node, const Shape& computed);
    /** All-gather / reduce-scatter against their input extent `in`;
     * raises SlapoError on a missing or out-of-range axis. */
    void checkCollective(const Node* node, const Shape& in);

    void inferCallOp(const Node* node, ValueInfo& out);
    void inferFused(const Node* node);

    const graph::Graph& graph_;
    const std::string& path_;
    Diagnostics& diags_;
    std::map<const Node*, ValueInfo> info_;
    /** inferCallOp's operand list, reused across nodes. */
    std::vector<const Tensor*> operands_;
};

void
GraphInfer::checkDeclared(const Node* node, const Shape& computed)
{
    if (node->shapes().empty()) {
        return; // validate() reports missing shapes
    }
    if (node->shapes()[0] != computed) {
        report(diags_, "SLP101", Severity::Error,
               "shape contradiction: op '" + node->signature() +
                   "' computes " + shapeToString(computed) +
                   " but the node declares " +
                   shapeToString(node->shapes()[0]),
               path_, node);
    }
}

void
GraphInfer::checkCollective(const Node* node, const Shape& in)
{
    // The extent scaling factor is the tracing-time world size, which the
    // graph does not record; check divisibility instead of the exact
    // extent.
    const int64_t axis = normalizeAxis(node->attrInt("axis"), in.size());
    SLAPO_CHECK(axisInRange(axis, in.size()),
                "bad axis " << node->attrInt("axis") << " for "
                            << shapeToString(in));
    if (node->shapes().empty()) {
        return;
    }
    const Shape& declared = node->shapes()[0];
    const bool gather = node->op() == OpKind::AllGather;
    bool ok = declared.size() == in.size();
    for (size_t d = 0; ok && d < declared.size(); ++d) {
        if (static_cast<int64_t>(d) == axis) {
            const int64_t big = gather ? declared[d] : in[d];
            const int64_t small = gather ? in[d] : declared[d];
            ok = small > 0 && big % small == 0;
        } else {
            ok = declared[d] == in[d];
        }
    }
    if (!ok) {
        report(diags_, "SLP101", Severity::Error,
               "collective '" + node->signature() + "' declares " +
                   shapeToString(declared) +
                   " which is not a per-axis multiple/divisor of its input " +
                   shapeToString(in),
               path_, node);
    }
}

void
GraphInfer::inferCallOp(const Node* node, ValueInfo& out)
{
    const OpKind op = node->op();
    const graph::OpSchema& schema = graph::opSchema(op);
    const size_t arity = node->inputs().size();

    bool is_float = schema.real_out == graph::RealOut::Always;
    for (size_t i = 0; schema.real_out == graph::RealOut::IfAny && i < arity;
         ++i) {
        is_float = is_float || inFloat(node, i);
    }
    out.is_float.assign(std::max<size_t>(node->shapes().size(), 1),
                        is_float);

    try {
        graph::checkArity(schema, arity);
        operands_.clear();
        for (size_t i = 0; i < arity; ++i) {
            const Tensor* value = operand(node, i);
            SLAPO_CHECK(value != nullptr,
                        "operand " << i << " (%" << node->inputs()[i]->name()
                                   << ") has no known shape");
            operands_.push_back(value);
        }
        if (op == OpKind::EmbeddingOp && inFloat(node, 0)) {
            report(diags_, "SLP110", Severity::Error,
                   "embedding ids input is a real-valued tensor "
                   "(produced by floating-point compute); ids must stay "
                   "integral",
                   path_, node);
        }
        if (op == OpKind::CrossEntropyOp && inFloat(node, 1)) {
            report(diags_, "SLP111", Severity::Error,
                   "cross-entropy targets are real-valued (produced by "
                   "floating-point compute); class targets must stay "
                   "integral",
                   path_, node);
        }
        if (op == OpKind::AllGather || op == OpKind::ReduceScatter) {
            checkCollective(node, operands_[0]->shape());
        } else {
            checkDeclared(node, schema.shape(graph::OpArgs(
                                    operands_, node->attrs(), schema.name)));
        }
    } catch (const SlapoError& e) {
        badInputs(node, e.what());
    }
}

void
GraphInfer::inferFused(const Node* node)
{
    graph::Graph* sub = node->subgraph();
    if (sub == nullptr) {
        badInputs(node, "fused op has no subgraph");
        return;
    }
    const auto& sub_inputs = sub->placeholders();
    if (sub_inputs.size() != node->inputs().size()) {
        badInputs(node,
                  "fused subgraph expects " +
                      std::to_string(sub_inputs.size()) + " inputs, node has " +
                      std::to_string(node->inputs().size()));
        return;
    }
    // The fused node's operands must match the subgraph's placeholder
    // declarations — the subgraph is checked internally against those.
    for (size_t i = 0; i < sub_inputs.size(); ++i) {
        const Tensor* outer = operand(node, i);
        if (outer == nullptr || sub_inputs[i]->shapes().empty()) {
            continue;
        }
        if (outer->shape() != sub_inputs[i]->shapes()[0]) {
            report(diags_, "SLP101", Severity::Error,
                   "fused subgraph input " + std::to_string(i) +
                       " declares " +
                       shapeToString(sub_inputs[i]->shapes()[0]) +
                       " but receives " + shapeToString(outer->shape()),
                   path_, node);
        }
    }
    inferGraphShapes(*sub, path_, diags_);
    // Subgraph outputs must line up with the fused node's declaration.
    const Node* sub_out = sub->outputNode();
    if (sub_out != nullptr &&
        sub_out->inputs().size() == node->shapes().size()) {
        for (size_t i = 0; i < node->shapes().size(); ++i) {
            const Node* ret = sub_out->inputs()[i];
            if (!ret->shapes().empty() &&
                ret->shapes()[0] != node->shapes()[i]) {
                report(diags_, "SLP101", Severity::Error,
                       "fused node output " + std::to_string(i) +
                           " declares " + shapeToString(node->shapes()[i]) +
                           " but its subgraph computes " +
                           shapeToString(ret->shapes()[0]),
                       path_, node);
            }
        }
    }
}

void
GraphInfer::run()
{
    for (const Node* node : graph_.nodes()) {
        ValueInfo out;
        if (!node->shapes().empty()) {
            out.value = Tensor::meta(node->shapes()[0]); // the declaration
        }
        out.is_float.assign(std::max<size_t>(node->shapes().size(), 1),
                            false);
        switch (node->kind()) {
          case NodeKind::Placeholder:
            break;
          case NodeKind::GetParam: {
            nn::Module* owner = node->module();
            if (owner == nullptr || !owner->hasParam(node->target())) {
                report(diags_, "SLP102", Severity::Error,
                       "get_param target '" + node->target() +
                           "' is not a parameter of the referenced module",
                       path_, node);
                break;
            }
            const Shape& actual =
                owner->paramTensor(node->target()).shape();
            if (!node->shapes().empty() && node->shapes()[0] != actual) {
                // A shard-materialized replica legitimately carries a
                // 1/world-size slice along the shard axis; anything else
                // is a real mismatch.
                bool shard_explained = false;
                auto it =
                    owner->meta().sharded_params.find(node->target());
                if (it != owner->meta().sharded_params.end()) {
                    const nn::ShardSpec& spec = it->second;
                    const Shape& declared = node->shapes()[0];
                    if (declared.size() == actual.size() &&
                        axisInRange(spec.axis, actual.size())) {
                        shard_explained = true;
                        for (size_t d = 0; d < actual.size(); ++d) {
                            if (static_cast<int64_t>(d) == spec.axis) {
                                shard_explained =
                                    shard_explained &&
                                    (declared[d] ==
                                         actual[d] * spec.world_size ||
                                     actual[d] ==
                                         declared[d] * spec.world_size);
                            } else {
                                shard_explained = shard_explained &&
                                                  declared[d] == actual[d];
                            }
                        }
                    }
                }
                if (!shard_explained) {
                    report(diags_, "SLP102", Severity::Error,
                           "parameter '" + node->target() + "' has shape " +
                               shapeToString(actual) +
                               " but the graph declares " +
                               shapeToString(node->shapes()[0]),
                           path_, node);
                }
            }
            std::fill(out.is_float.begin(), out.is_float.end(), true);
            break;
          }
          case NodeKind::CallOp:
            inferCallOp(node, out);
            break;
          case NodeKind::CallModule:
            break; // child output declarations are trusted here
          case NodeKind::FusedOp:
            inferFused(node);
            break;
          case NodeKind::TupleGet: {
            if (node->inputs().empty()) {
                break;
            }
            const Node* src = node->inputs()[0];
            const int64_t index =
                node->hasAttr("index") ? node->attrInt("index") : 0;
            if (index < 0 ||
                index >= static_cast<int64_t>(src->shapes().size())) {
                report(diags_, "SLP103", Severity::Error,
                       "tuple_get index " + std::to_string(index) +
                           " out of range for a " +
                           std::to_string(src->shapes().size()) +
                           "-output producer",
                       path_, node);
                break;
            }
            if (!node->shapes().empty() &&
                node->shapes()[0] != src->shapes()[index]) {
                report(diags_, "SLP101", Severity::Error,
                       "tuple_get declares " +
                           shapeToString(node->shapes()[0]) +
                           " but selects output of shape " +
                           shapeToString(src->shapes()[index]),
                       path_, node);
            }
            const ValueInfo* src_info = infoOf(src);
            if (src_info != nullptr &&
                index < static_cast<int64_t>(src_info->is_float.size())) {
                std::fill(out.is_float.begin(), out.is_float.end(),
                          src_info->is_float[index]);
            }
            break;
          }
          case NodeKind::Output:
            break;
        }
        info_.emplace(node, std::move(out));
    }
}

} // namespace

void
inferGraphShapes(const graph::Graph& graph, const std::string& module_path,
                 Diagnostics& diags)
{
    GraphInfer(graph, module_path, diags).run();
}

void
inferShapes(nn::Module& root, Diagnostics& diags)
{
    for (auto& [path, m] : root.namedModules()) {
        if (m->meta().traced_graph) {
            inferGraphShapes(*m->meta().traced_graph, path, diags);
        }
    }
}

} // namespace analysis
} // namespace slapo
