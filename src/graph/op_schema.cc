#include "graph/op_schema.h"

#include <algorithm>
#include <array>
#include <utility>

#include "nn/context.h"
#include "runtime/process_group.h"
#include "tensor/ops.h"

namespace slapo {
namespace graph {

namespace {

// Short names keep each table row to a few lines.
using Grads = std::vector<Tensor>;
using A = const OpArgs&;
using T = const Tensor&;
using enum RealOut;

int64_t
normalizeAxis(int64_t axis, const Shape& shape)
{
    return axis < 0 ? axis + static_cast<int64_t>(shape.size()) : axis;
}

/** Attribute `attr` as a range-checked axis of operand 0. */
int64_t
axisAttr(A a, const char* attr)
{
    const int64_t axis = a.attrInt(attr);
    const int64_t ax = normalizeAxis(axis, a.shape(0));
    SLAPO_CHECK(ax >= 0 && ax < static_cast<int64_t>(a.shape(0).size()),
                "bad axis " << axis << " for " << shapeToString(a.shape(0)));
    return ax;
}

/** Upstream gradient summed down to operand `i`'s (broadcast) shape. */
Tensor
reduced(T g, A x, size_t i)
{
    return ops::reduceToShape(g, x.shape(i));
}

/** The thread's DistContext when a collective really exchanges data
 * (world size > 1); nullptr when the collective is the identity. */
nn::DistContext*
exchange(const char* op)
{
    nn::DistContext* dc = nn::DistContext::current();
    if (dc == nullptr || dc->world_size == 1) {
        return nullptr;
    }
    SLAPO_CHECK(dc->group != nullptr,
                "collective " << op
                              << " requires a live ProcessGroup on this thread");
    return dc;
}

/** Operand 0's shape with its "axis" extent multiplied (all-gather) or
 * divided (reduce-scatter) by the world size. */
template <bool kGather>
Shape
collectiveShape(A a)
{
    const nn::DistContext* dc = nn::DistContext::current();
    const int ws = dc ? dc->world_size : 1;
    const int64_t ax = axisAttr(a, "axis");
    Shape out = a.shape(0);
    SLAPO_CHECK(kGather || out[ax] % ws == 0,
                "reduce_scatter: axis extent " << out[ax]
                                               << " not divisible by world "
                                               << ws);
    out[ax] = kGather ? out[ax] * ws : out[ax] / ws;
    return out;
}

/** Operand 0 unchanged, once operands 1 and 2 (gamma, beta) are vectors
 * of its feature extent `feat`. */
Shape
normShape(A a, int64_t feat, const char* op)
{
    for (size_t i = 1; i <= 2; ++i) {
        const Shape& v = a.shape(i);
        SLAPO_CHECK(v.size() == 1 && v[0] == feat,
                    op << ": " << (i == 1 ? "gamma " : "beta ")
                       << shapeToString(v)
                       << " does not match feature extent " << feat);
    }
    return a.shape(0);
}

// Adapters shared by many entries.
Shape sameShape(A a) { return a.shape(0); }
Shape broadcastShape(A a) { return broadcastShapes(a.shape(0), a.shape(1)); }
Shape scalarShape(A) { return {1}; }
double outCost(A, const Shape& out) { return static_cast<double>(numelOf(out)); }
double inCost(A a, const Shape&) { return static_cast<double>(a[0].numel()); }
/** K FLOPs per element of operand 0. */
template <int K>
double perElemCost(A a, const Shape& out) { return K * inCost(a, out); }
template <Tensor (*F)(T)>
Tensor unary(A a) { return F(a[0]); }
template <Tensor (*F)(T, T)>
Tensor binary(A a) { return F(a[0], a[1]); }
template <void (*F)(Tensor&)>
void unaryInPlace(Tensor& out, A) { F(out); }
template <void (*F)(Tensor&, T)>
void binaryInPlace(Tensor& out, A a) { F(out, a[1]); }
Grads passGrad(A, T, T g) { return {g.clone()}; }

// Columns: kind, name, min/max arity, real output, shape, cost, kernel,
// in-place twin, backward, then is_view / is_comm where set.
constexpr std::array<OpSchema, kNumOpKinds> kOps = {{
    // elementwise / broadcast
    {OpKind::Add, "add", 2, 2, IfAny, broadcastShape, outCost,
     binary<ops::add>, binaryInPlace<ops::addInPlace>,
     [](A x, T, T g) -> Grads { return {reduced(g, x, 0), reduced(g, x, 1)}; }},
    {OpKind::Sub, "sub", 2, 2, IfAny, broadcastShape, outCost,
     binary<ops::sub>, binaryInPlace<ops::subInPlace>,
     [](A x, T, T g) -> Grads {
         return {reduced(g, x, 0), ops::scale(reduced(g, x, 1), -1.0f)};
     }},
    {OpKind::Mul, "mul", 2, 2, IfAny, broadcastShape, outCost,
     binary<ops::mul>, binaryInPlace<ops::mulInPlace>,
     [](A x, T, T g) -> Grads {
         return {reduced(ops::mul(g, x[1]), x, 0),
                 reduced(ops::mul(g, x[0]), x, 1)};
     }},
    {OpKind::Div, "div", 2, 2, Always, broadcastShape, outCost,
     binary<ops::div>, binaryInPlace<ops::divInPlace>,
     [](A x, T, T g) -> Grads {
         Tensor ga = reduced(ops::div(g, x[1]), x, 0);
         Tensor gb = reduced(
             ops::scale(ops::mul(g, ops::div(x[0], ops::mul(x[1], x[1]))),
                        -1.0f),
             x, 1);
         return {std::move(ga), std::move(gb)};
     }},
    {OpKind::Scale, "scale", 1, 1, Always, sameShape, inCost,
     [](A a) { return ops::scale(a[0], a.attrF32("factor")); },
     [](Tensor& out, A a) { ops::scaleInPlace(out, a.attrF32("factor")); },
     [](A x, T, T g) -> Grads { return {ops::scale(g, x.attrF32("factor"))}; }},
    {OpKind::AddScalar, "add_scalar", 1, 1, IfAny, sameShape, inCost,
     [](A a) { return ops::addScalar(a[0], a.attrF32("value")); },
     [](Tensor& out, A a) { ops::addScalarInPlace(out, a.attrF32("value")); },
     passGrad},
    {OpKind::Gelu, "gelu", 1, 1, Always, sameShape, perElemCost<8>,
     unary<ops::gelu>, unaryInPlace<ops::geluInPlace>,
     [](A x, T, T g) -> Grads { return {ops::geluBackward(g, x[0])}; }},
    {OpKind::Relu, "relu", 1, 1, IfAny, sameShape, perElemCost<1>,
     unary<ops::relu>, unaryInPlace<ops::reluInPlace>,
     [](A x, T, T g) -> Grads { return {ops::reluBackward(g, x[0])}; }},
    {OpKind::Tanh, "tanh", 1, 1, Always, sameShape, perElemCost<5>,
     unary<ops::tanhOp>, unaryInPlace<ops::tanhInPlace>,
     [](A, T y, T g) -> Grads { return {ops::tanhBackward(g, y)}; }},
    {OpKind::Clamp, "clamp", 1, 1, IfAny, sameShape, inCost,
     [](A a) { return ops::clampScalar(a[0], a.attrF32("lo"), a.attrF32("hi")); },
     [](Tensor& out, A a) {
         ops::clampScalarInPlace(out, a.attrF32("lo"), a.attrF32("hi"));
     },
     [](A x, T, T g) -> Grads {
         return {ops::mul(g, ops::rangeMask(x[0], x.attrF32("lo"), x.attrF32("hi")))};
     }},
    {OpKind::RangeMask, "range_mask", 1, 1, Never, sameShape, inCost,
     [](A a) { return ops::rangeMask(a[0], a.attrF32("lo"), a.attrF32("hi")); },
     [](Tensor& out, A a) {
         ops::rangeMaskInPlace(out, a.attrF32("lo"), a.attrF32("hi"));
     },
     [](A x, T, T) -> Grads { return {Tensor::zeros(x.shape(0))}; }},
    {OpKind::CausalMask, "causal_mask", 1, 1, Always,
     [](A a) {
         SLAPO_CHECK(a.shape(0).size() >= 2, "causal_mask: rank < 2");
         return a.shape(0);
     },
     inCost, unary<ops::causalMask>, unaryInPlace<ops::causalMaskInPlace>,
     passGrad},
    // Computing the bucketed bias costs a few ops per score element — the
    // overhead §5.2 credits Megatron's fixed embeddings with avoiding.
    {OpKind::RelPosBias, "rel_pos_bias", 2, 2, Always,
     [](A a) {
         SLAPO_CHECK(a.shape(0).size() == 4 && a.shape(1).size() == 2,
                     "rel_pos_bias: expects 4-D scores and 2-D table");
         SLAPO_CHECK(a.shape(0)[1] == a.shape(1)[0],
                     "rel_pos_bias: head count mismatch ("
                         << a.shape(0)[1] << " vs " << a.shape(1)[0] << ")");
         return a.shape(0);
     },
     perElemCost<4>, binary<ops::relPosBias>, nullptr,
     [](A x, T, T g) -> Grads {
         return {g.clone(), ops::relPosBiasTableBackward(g, x.shape(1))};
     }},

    // reductions / normalization / regularization. Softmax is row-local:
    // each row is read before its sequential pass overwrites it.
    {OpKind::Softmax, "softmax", 1, 1, Always, sameShape, perElemCost<5>,
     unary<ops::softmax>, unaryInPlace<ops::softmaxInPlace>,
     [](A, T y, T g) -> Grads { return {ops::softmaxBackward(g, y)}; }},
    {OpKind::LayerNormOp, "layer_norm", 3, 3, Always,
     [](A a) {
         SLAPO_CHECK(!a.shape(0).empty(), "layer_norm: rank < 1");
         return normShape(a, a.shape(0).back(), "layer_norm");
     },
     perElemCost<8>,
     [](A a) { return ops::layerNorm(a[0], a[1], a[2], a.attrF32("eps")); },
     nullptr,
     [](A x, T, T g) -> Grads {
         ops::LayerNormGrads lg =
             ops::layerNormBackward(g, x[0], x[1], x.attrF32("eps"));
         return {std::move(lg.grad_x), std::move(lg.grad_gamma),
                 std::move(lg.grad_beta)};
     }},
    {OpKind::Dropout, "dropout", 1, 1, Always, sameShape, perElemCost<2>,
     [](A a) {
         return ops::dropout(a[0], a.attrF32("p"),
                             static_cast<uint64_t>(a.attrInt("seed")));
     },
     nullptr,
     [](A x, T, T g) -> Grads {
         return {ops::dropoutBackward(g, x.attrF32("p"),
                                      static_cast<uint64_t>(x.attrInt("seed")))};
     }},

    // linear algebra / layout
    {OpKind::Matmul, "matmul", 2, 2, Always,
     [](A a) {
         const Shape& sa = a.shape(0);
         const Shape& sb = a.shape(1);
         SLAPO_CHECK(sa.size() >= 2 && sb.size() >= 2, "matmul: rank < 2");
         SLAPO_CHECK(sa.back() == sb[sb.size() - 2],
                     "matmul: inner dims mismatch " << shapeToString(sa) << " @ "
                                                    << shapeToString(sb));
         Shape out = broadcastShapes(Shape(sa.begin(), sa.end() - 2),
                                     Shape(sb.begin(), sb.end() - 2));
         out.push_back(sa[sa.size() - 2]);
         out.push_back(sb.back());
         return out;
     },
     [](A a, const Shape& out) {
         const Shape& sa = a.shape(0);
         const Shape batch(out.begin(), out.end() - 2);
         return 2.0 * static_cast<double>(numelOf(batch)) *
                static_cast<double>(sa[sa.size() - 2]) *
                static_cast<double>(sa.back()) *
                static_cast<double>(a.shape(1).back());
     },
     binary<ops::matmul>, nullptr,
     [](A x, T, T g) -> Grads {
         Tensor ga = reduced(ops::matmul(g, ops::transposeLast2(x[1])), x, 0);
         Tensor gb = reduced(ops::matmul(ops::transposeLast2(x[0]), g), x, 1);
         return {std::move(ga), std::move(gb)};
     }},
    {OpKind::LinearOp, "linear", 2, 3, Always,
     [](A a) {
         const Shape& x = a.shape(0);
         const Shape& w = a.shape(1);
         SLAPO_CHECK(w.size() == 2, "linear: weight must be 2-D");
         SLAPO_CHECK(!x.empty() && x.back() == w[1],
                     "linear: input " << shapeToString(x) << " vs weight "
                                      << shapeToString(w));
         if (a.size() > 2) {
             const Shape& b = a.shape(2);
             SLAPO_CHECK(b.size() == 1 && b[0] == w[0],
                         "linear: bias " << shapeToString(b) << " vs weight "
                                         << shapeToString(w));
         }
         Shape out = x;
         out.back() = w[0];
         return out;
     },
     [](A a, const Shape&) {
         const Shape& w = a.shape(1);
         const double rows =
             static_cast<double>(a[0].numel()) / static_cast<double>(w[1]);
         return 2.0 * rows * static_cast<double>(w[0]) *
                    static_cast<double>(w[1]) +
                (a.size() > 2 ? rows * static_cast<double>(w[0]) : 0.0);
     },
     [](A a) {
         static const Tensor kNoBias = Tensor::zeros({0});
         return ops::linear(a[0], a[1], a.size() > 2 ? a[2] : kNoBias);
     },
     nullptr,
     [](A x, T, T g) {
         ops::LinearGrads lg = ops::linearBackward(g, x[0], x[1], x.size() > 2);
         Grads grads = {std::move(lg.grad_x), std::move(lg.grad_weight)};
         if (x.size() > 2) {
             grads.push_back(std::move(lg.grad_bias));
         }
         return grads;
     }},
    {OpKind::TransposeLast2, "transpose", 1, 1, IfAny,
     [](A a) {
         SLAPO_CHECK(a.shape(0).size() >= 2, "transpose: rank < 2");
         Shape out = a.shape(0);
         std::swap(out[out.size() - 1], out[out.size() - 2]);
         return out;
     },
     nullptr, unary<ops::transposeLast2>, nullptr,
     [](A, T, T g) -> Grads { return {ops::transposeLast2(g)}; }},
    {OpKind::Reshape, "reshape", 1, 1, IfAny,
     [](A a) {
         const Shape& target = a.attrInts("shape");
         SLAPO_CHECK(numelOf(target) == a[0].numel() &&
                         std::none_of(target.begin(), target.end(),
                                      [](int64_t d) { return d < 0; }),
                     "reshape: cannot view " << shapeToString(a.shape(0))
                                             << " as " << shapeToString(target));
         return target;
     },
     nullptr, [](A a) { return a[0].reshape(a.attrInts("shape")); }, nullptr,
     [](A x, T, T g) -> Grads { return {g.reshape(x.shape(0))}; },
     /*is_view=*/true},
    {OpKind::Permute, "permute", 1, 1, IfAny,
     [](A a) {
         const Shape& x = a.shape(0);
         const std::vector<int64_t>& perm = a.attrInts("perm");
         SLAPO_CHECK(perm.size() == x.size(), "permute: rank mismatch");
         Shape out(perm.size());
         for (size_t i = 0; i < perm.size(); ++i) {
             const int64_t p = perm[i];
             SLAPO_CHECK(p >= 0 && p < static_cast<int64_t>(x.size()) &&
                             std::find(perm.begin(), perm.begin() + i, p) ==
                                 perm.begin() + i,
                         "permute: 'perm' is not a permutation of the "
                             << x.size() << " axes");
             out[i] = x[p];
         }
         return out;
     },
     nullptr, [](A a) { return ops::permute(a[0], a.attrInts("perm")); },
     nullptr,
     [](A x, T, T g) -> Grads {
         const std::vector<int64_t>& perm = x.attrInts("perm");
         std::vector<int64_t> inverse(perm.size());
         for (size_t i = 0; i < perm.size(); ++i) {
             inverse[perm[i]] = static_cast<int64_t>(i);
         }
         return {ops::permute(g, inverse)};
     }},
    {OpKind::Concat, "concat", 1, kVariadic, IfAny,
     [](A a) {
         const int64_t ax = axisAttr(a, "axis");
         const Shape& first = a.shape(0);
         Shape out = first;
         for (size_t i = 1; i < a.size(); ++i) {
             const Shape& s = a.shape(i);
             bool agree = s.size() == first.size();
             for (size_t d = 0; agree && d < s.size(); ++d) {
                 agree = static_cast<int64_t>(d) == ax || s[d] == first[d];
             }
             SLAPO_CHECK(agree, "concat: operand " << shapeToString(s)
                                                   << " disagrees with "
                                                   << shapeToString(first)
                                                   << " off axis " << ax);
             out[ax] += s[ax];
         }
         return out;
     },
     nullptr,
     [](A a) {
         std::vector<Tensor> parts;
         for (size_t i = 0; i < a.size(); ++i) {
             parts.push_back(a[i]);
         }
         return ops::concat(parts, axisAttr(a, "axis"));
     },
     nullptr,
     [](A x, T, T g) {
         const int64_t axis = x.attrInt("axis");
         Grads grads;
         int64_t offset = 0;
         for (size_t i = 0; i < x.size(); ++i) {
             grads.push_back(ops::narrow(g, axis, offset, x[i].size(axis)));
             offset += x[i].size(axis);
         }
         return grads;
     }},
    {OpKind::Narrow, "narrow", 1, 1, IfAny,
     [](A a) {
         const int64_t ax = axisAttr(a, "axis");
         const int64_t start = a.attrInt("start");
         const int64_t length = a.attrInt("length");
         const int64_t extent = a.shape(0)[ax];
         SLAPO_CHECK(start >= 0 && length > 0 && start + length <= extent,
                     "narrow: [" << start << ", " << start + length
                                 << ") is not a slice of axis extent "
                                 << extent);
         Shape out = a.shape(0);
         out[ax] = length;
         return out;
     },
     nullptr,
     [](A a) {
         return ops::narrow(a[0], axisAttr(a, "axis"), a.attrInt("start"),
                            a.attrInt("length"));
     },
     nullptr,
     [](A x, T, T g) -> Grads {
         return {ops::narrowBackward(g, x.shape(0), x.attrInt("axis"),
                                     x.attrInt("start"))};
     }},

    // lookup / loss
    {OpKind::EmbeddingOp, "embedding", 2, 2, Always,
     [](A a) {
         SLAPO_CHECK(a.shape(1).size() == 2, "embedding: table must be 2-D");
         Shape out = a.shape(0);
         out.push_back(a.shape(1)[1]);
         return out;
     },
     nullptr, binary<ops::embedding>, nullptr,
     [](A x, T, T g) -> Grads {
         return {Tensor::zeros(x.shape(0)),
                 ops::embeddingBackward(g, x[0], x[1].size(0))};
     }},
    {OpKind::CrossEntropyOp, "cross_entropy", 2, 2, Always, scalarShape,
     perElemCost<8>, binary<ops::crossEntropy>, nullptr,
     [](A x, T, T g) -> Grads {
         return {ops::scale(ops::crossEntropyBackward(x[0], x[1]), g.at(0)),
                 Tensor::zeros(x.shape(1))};
     }},
    {OpKind::MseLossOp, "mse_loss", 2, 2, Always, scalarShape, perElemCost<3>,
     binary<ops::mseLoss>, nullptr, [](A x, T, T g) -> Grads {
         return {ops::scale(ops::mseLossBackward(x[0], x[1]), g.at(0)),
                 Tensor::zeros(x.shape(1))};
     }},

    // vision: forward/simulation only
    {OpKind::Conv2dOp, "conv2d", 2, 2, Always,
     [](A a) {
         const Shape& sx = a.shape(0);
         const Shape& sw = a.shape(1);
         SLAPO_CHECK(sx.size() == 4 && sw.size() == 4, "conv2d: NCHW/OIHW only");
         SLAPO_CHECK(sx[1] == sw[1], "conv2d: channel mismatch");
         const int64_t stride = a.attrInt("stride");
         const int64_t pad = a.attrInt("pad");
         SLAPO_CHECK(stride > 0, "conv2d: stride " << stride << " is not positive");
         SLAPO_CHECK(sx[2] + 2 * pad >= sw[2] && sx[3] + 2 * pad >= sw[3],
                     "conv2d: kernel does not fit the padded input");
         return Shape{sx[0], sw[0], (sx[2] + 2 * pad - sw[2]) / stride + 1,
                      (sx[3] + 2 * pad - sw[3]) / stride + 1};
     },
     [](A a, const Shape& out) {
         const Shape& sw = a.shape(1);
         return 2.0 * static_cast<double>(numelOf(out)) *
                static_cast<double>(sw[1] * sw[2] * sw[3]);
     },
     [](A a) {
         return ops::conv2d(a[0], a[1], a.attrInt("stride"), a.attrInt("pad"));
     }},
    {OpKind::BatchNormOp, "batch_norm", 3, 3, Always,
     [](A a) {
         SLAPO_CHECK(a.shape(0).size() == 4, "batch_norm: NCHW only");
         return normShape(a, a.shape(0)[1], "batch_norm");
     },
     perElemCost<8>,
     [](A a) { return ops::batchNorm2d(a[0], a[1], a[2], a.attrF32("eps")); }},
    {OpKind::GlobalAvgPoolOp, "global_avg_pool", 1, 1, Always,
     [](A a) {
         SLAPO_CHECK(a.shape(0).size() == 4, "global_avg_pool: NCHW only");
         return Shape{a.shape(0)[0], a.shape(0)[1]};
     },
     inCost, unary<ops::globalAvgPool>},

    // Collectives inserted by .sync(). Payload convention: the *full*
    // tensor exchanged — the gathered output for all-gather, the reduced
    // input otherwise — so ring-cost formulas apply (n-1)/n uniformly.
    // d(all_reduce)/dx is the identity per rank; the scheduler's
    // conjugate sync point covers the reduction of the other side.
    {OpKind::AllReduce, "all_reduce", 1, 1, IfAny, sameShape, inCost,
     [](A a) {
         nn::DistContext* dc = exchange("all_reduce");
         return dc ? dc->group->allReduce(dc->rank, a[0]) : a[0].clone();
     },
     nullptr, passGrad, /*is_view=*/false, /*is_comm=*/true},
    {OpKind::AllGather, "all_gather", 1, 1, IfAny, collectiveShape<true>,
     outCost,
     [](A a) {
         nn::DistContext* dc = exchange("all_gather");
         return dc ? dc->group->allGather(dc->rank, a[0], a.attrInt("axis"))
                   : a[0].clone();
     },
     nullptr,
     [](A x, T, T g) -> Grads {
         const nn::DistContext* dc = nn::DistContext::current();
         const int64_t ax = normalizeAxis(x.attrInt("axis"), x.shape(0));
         const int64_t len = x[0].size(ax);
         return {ops::narrow(g, ax, (dc ? dc->rank : 0) * len, len)};
     },
     /*is_view=*/false, /*is_comm=*/true},
    {OpKind::ReduceScatter, "reduce_scatter", 1, 1, IfAny,
     collectiveShape<false>, inCost,
     [](A a) {
         nn::DistContext* dc = exchange("reduce_scatter");
         return dc ? dc->group->reduceScatter(dc->rank, a[0], a.attrInt("axis"))
                   : a[0].clone();
     },
     nullptr,
     [](A x, T, T g) -> Grads {
         nn::DistContext* dc = exchange("reduce_scatter");
         return {dc ? dc->group->allGather(dc->rank, g, x.attrInt("axis"))
                    : g.clone()};
     },
     /*is_view=*/false, /*is_comm=*/true},
    {OpKind::Identity, "identity", 1, 1, IfAny, sameShape, nullptr,
     [](A a) { return a[0].clone(); }, nullptr, passGrad, /*is_view=*/true},
}};

/** Compile-time completeness: one entry per OpKind, in enum order. (The
 * rules' function pointers are checked by tests/test_op_table.cc: GCC
 * cannot compare them to null in a constant expression under UBSan.) */
constexpr bool
tableComplete()
{
    for (size_t i = 0; i < kOps.size(); ++i) {
        const OpSchema& op = kOps[i];
        if (op.kind != static_cast<OpKind>(i) || op.name == nullptr ||
            op.min_arity < 1 || op.max_arity < op.min_arity) {
            return false;
        }
    }
    return true;
}
static_assert(tableComplete(), "op table: every OpKind needs an entry, in "
                               "enum order, with a name and arity");

} // namespace

const OpSchema&
opSchema(OpKind kind)
{
    return kOps[static_cast<size_t>(kind)];
}

void
checkArity(const OpSchema& op, size_t arity)
{
    if (arity >= static_cast<size_t>(op.min_arity) &&
        arity <= static_cast<size_t>(op.max_arity)) {
        return;
    }
    std::string bounds = std::to_string(op.min_arity);
    if (op.max_arity == kVariadic) {
        bounds += "..n";
    } else if (op.max_arity != op.min_arity) {
        bounds += ".." + std::to_string(op.max_arity);
    }
    SLAPO_THROW(op.name << ": takes " << bounds << " inputs, got " << arity);
}

} // namespace graph
} // namespace slapo
