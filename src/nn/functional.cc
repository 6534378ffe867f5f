#include "nn/functional.h"

#include "graph/op_schema.h"
#include "nn/context.h"

namespace slapo {
namespace nn {

using graph::Node;
using graph::NodeKind;
using graph::OpKind;

Value
dispatchOp(OpKind kind, const graph::AttrMap& attrs,
           const std::vector<Value>& inputs)
{
    const graph::OpSchema& op = graph::opSchema(kind);
    graph::checkArity(op, inputs.size());

    std::vector<const Tensor*> tensors;
    tensors.reserve(inputs.size());
    bool all_materialized = true;
    for (const Value& v : inputs) {
        tensors.push_back(&v.tensor());
        all_materialized &= v.tensor().materialized();
    }
    const graph::OpArgs args(tensors, attrs, op.name);
    Shape out_shape = op.shape(args);

    if (TracingState* ts = TracingState::current()) {
        Node* node = ts->graph()->createNode(NodeKind::CallOp, op.name);
        node->setOp(kind);
        for (const Value& v : inputs) {
            SLAPO_CHECK(v.symbolic(),
                        "tracing " << op.name
                                   << ": input is not symbolic; tensors "
                                      "created outside the traced region must "
                                      "enter via placeholders or parameters");
            node->addInput(v.node());
        }
        for (const auto& [k, v] : attrs) {
            node->setAttr(k, v);
        }
        node->setShapes({out_shape});
        return Value(Tensor::meta(std::move(out_shape)), node);
    }

    if (Profiler* prof = Profiler::current()) {
        const double cost = op.cost ? op.cost(args, out_shape) : 0.0;
        if (op.is_comm) {
            prof->recordComm(op.name, cost);
        } else if (!op.is_view) {
            double elems_in = 0;
            for (const Tensor* t : tensors) {
                elems_in += static_cast<double>(t->numel());
            }
            prof->recordOp(op.name, cost, elems_in,
                           static_cast<double>(numelOf(out_shape)));
        }
    }

    if (!all_materialized) {
        return Value(Tensor::meta(std::move(out_shape)));
    }
    Tensor out = op.kernel(args);
    SLAPO_ASSERT(out.shape() == out_shape,
                 "op " << op.name << ": inferred shape "
                       << shapeToString(out_shape) << " != computed shape "
                       << shapeToString(out.shape()));
    return Value(std::move(out));
}

namespace F {

Value
add(const Value& a, const Value& b)
{
    return dispatchOp(OpKind::Add, {}, {a, b});
}

Value
sub(const Value& a, const Value& b)
{
    return dispatchOp(OpKind::Sub, {}, {a, b});
}

Value
mul(const Value& a, const Value& b)
{
    return dispatchOp(OpKind::Mul, {}, {a, b});
}

Value
div(const Value& a, const Value& b)
{
    return dispatchOp(OpKind::Div, {}, {a, b});
}

Value
scale(const Value& a, double factor)
{
    return dispatchOp(OpKind::Scale, {{"factor", factor}}, {a});
}

Value
addScalar(const Value& a, double value)
{
    return dispatchOp(OpKind::AddScalar, {{"value", value}}, {a});
}

Value
gelu(const Value& a)
{
    return dispatchOp(OpKind::Gelu, {}, {a});
}

Value
relu(const Value& a)
{
    return dispatchOp(OpKind::Relu, {}, {a});
}

Value
tanh(const Value& a)
{
    return dispatchOp(OpKind::Tanh, {}, {a});
}

Value
clampScalar(const Value& a, double lo, double hi)
{
    return dispatchOp(OpKind::Clamp, {{"lo", lo}, {"hi", hi}}, {a});
}

Value
rangeMask(const Value& a, double lo, double hi)
{
    return dispatchOp(OpKind::RangeMask, {{"lo", lo}, {"hi", hi}}, {a});
}

Value
causalMask(const Value& scores)
{
    return dispatchOp(OpKind::CausalMask, {}, {scores});
}

Value
relPosBias(const Value& scores, const Value& table)
{
    return dispatchOp(OpKind::RelPosBias, {}, {scores, table});
}

Value
softmax(const Value& a)
{
    return dispatchOp(OpKind::Softmax, {}, {a});
}

Value
layerNorm(const Value& x, const Value& gamma, const Value& beta, double eps)
{
    return dispatchOp(OpKind::LayerNormOp, {{"eps", eps}}, {x, gamma, beta});
}

Value
dropout(const Value& x, double p, int64_t seed)
{
    return dispatchOp(OpKind::Dropout, {{"p", p}, {"seed", seed}}, {x});
}

Value
matmul(const Value& a, const Value& b)
{
    return dispatchOp(OpKind::Matmul, {}, {a, b});
}

Value
linear(const Value& x, const Value& w, const Value& b)
{
    // A default-constructed Value (0-d meta tensor, no node) means "no
    // bias"; anything with a real shape or a graph node is a bias.
    if (b.symbolic() || b.tensor().dim() > 0) {
        return dispatchOp(OpKind::LinearOp, {}, {x, w, b});
    }
    return dispatchOp(OpKind::LinearOp, {}, {x, w});
}

Value
transposeLast2(const Value& a)
{
    return dispatchOp(OpKind::TransposeLast2, {}, {a});
}

Value
reshape(const Value& a, Shape shape)
{
    return dispatchOp(OpKind::Reshape, {{"shape", std::move(shape)}}, {a});
}

Value
permute(const Value& a, std::vector<int64_t> perm)
{
    return dispatchOp(OpKind::Permute, {{"perm", std::move(perm)}}, {a});
}

Value
concat(const std::vector<Value>& parts, int64_t axis)
{
    SLAPO_CHECK(!parts.empty(), "F::concat: no inputs");
    const int64_t rank = static_cast<int64_t>(parts[0].shape().size());
    return dispatchOp(OpKind::Concat, {{"axis", axis < 0 ? axis + rank : axis}},
                      parts);
}

Value
narrow(const Value& a, int64_t axis, int64_t start, int64_t length)
{
    const int64_t rank = static_cast<int64_t>(a.shape().size());
    return dispatchOp(OpKind::Narrow,
                      {{"axis", axis < 0 ? axis + rank : axis},
                       {"start", start},
                       {"length", length}},
                      {a});
}

Value
embedding(const Value& ids, const Value& table)
{
    return dispatchOp(OpKind::EmbeddingOp, {}, {ids, table});
}

Value
crossEntropy(const Value& logits, const Value& targets)
{
    return dispatchOp(OpKind::CrossEntropyOp, {}, {logits, targets});
}

Value
mseLoss(const Value& pred, const Value& target)
{
    return dispatchOp(OpKind::MseLossOp, {}, {pred, target});
}

Value
conv2d(const Value& x, const Value& w, int64_t stride, int64_t pad)
{
    return dispatchOp(OpKind::Conv2dOp, {{"stride", stride}, {"pad", pad}},
                      {x, w});
}

Value
batchNorm2d(const Value& x, const Value& gamma, const Value& beta, double eps)
{
    return dispatchOp(OpKind::BatchNormOp, {{"eps", eps}}, {x, gamma, beta});
}

Value
globalAvgPool(const Value& x)
{
    return dispatchOp(OpKind::GlobalAvgPoolOp, {}, {x});
}

Value
identity(const Value& a)
{
    return dispatchOp(OpKind::Identity, {}, {a});
}

Value
allReduce(const Value& x)
{
    return dispatchOp(OpKind::AllReduce, {{"axis", int64_t{-1}}}, {x});
}

Value
allGather(const Value& x, int64_t axis)
{
    return dispatchOp(OpKind::AllGather, {{"axis", axis}}, {x});
}

Value
reduceScatter(const Value& x, int64_t axis)
{
    return dispatchOp(OpKind::ReduceScatter, {{"axis", axis}}, {x});
}

} // namespace F
} // namespace nn
} // namespace slapo
