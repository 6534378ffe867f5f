/**
 * @file
 * The op table (graph/op_schema.h): every OpKind's entry is complete and
 * stable, in-place twins are bit-equal to their kernels, only ops with a
 * twin are planned in place, and static shape inference agrees with
 * execution on seeded random op chains and rejects exactly the malformed
 * invocations dispatch rejects.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "analysis/shape_infer.h"
#include "graph/graph.h"
#include "graph/memplan.h"
#include "graph/op_schema.h"
#include "models/registry.h"
#include "nn/context.h"
#include "nn/functional.h"
#include "nn/interpreter.h"
#include "nn/tracer.h"
#include "runtime/autograd.h"
#include "tensor/ops.h"

namespace slapo {
namespace {

using graph::Node;
using graph::NodeKind;
using graph::OpKind;
using graph::OpSchema;
using graph::opSchema;
using nn::Value;

OpKind
kindAt(size_t i)
{
    return static_cast<OpKind>(i);
}

bool
bitEqual(const Tensor& a, const Tensor& b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(OpTable, NamesAreUniqueAndStable)
{
    // Profiler rows, pattern regexes and the step benchmark key on these.
    const std::vector<std::string> expected = {
        "add",        "sub",           "mul",          "div",
        "scale",      "add_scalar",    "gelu",         "relu",
        "tanh",       "clamp",         "range_mask",   "causal_mask",
        "rel_pos_bias", "softmax",     "layer_norm",   "dropout",
        "matmul",     "linear",        "transpose",    "reshape",
        "permute",    "concat",        "narrow",       "embedding",
        "cross_entropy", "mse_loss",   "conv2d",       "batch_norm",
        "global_avg_pool", "all_reduce", "all_gather", "reduce_scatter",
        "identity",
    };
    ASSERT_EQ(expected.size(), graph::kNumOpKinds);
    std::set<std::string> seen;
    for (size_t i = 0; i < graph::kNumOpKinds; ++i) {
        const OpSchema& op = opSchema(kindAt(i));
        EXPECT_EQ(op.kind, kindAt(i));
        EXPECT_NE(op.shape, nullptr) << expected[i];
        EXPECT_NE(op.kernel, nullptr) << expected[i];
        EXPECT_EQ(op.name, expected[i]);
        EXPECT_EQ(graph::opKindName(kindAt(i)), expected[i]);
        EXPECT_TRUE(seen.insert(op.name).second) << "duplicate " << op.name;
    }
}

TEST(OpTable, ArityBoundsAndKinds)
{
    struct Expect
    {
        OpKind kind;
        int min_arity;
        int max_arity;
    };
    const std::vector<Expect> expected = {
        {OpKind::Add, 2, 2},           {OpKind::Sub, 2, 2},
        {OpKind::Mul, 2, 2},           {OpKind::Div, 2, 2},
        {OpKind::Scale, 1, 1},         {OpKind::AddScalar, 1, 1},
        {OpKind::Gelu, 1, 1},          {OpKind::Relu, 1, 1},
        {OpKind::Tanh, 1, 1},          {OpKind::Clamp, 1, 1},
        {OpKind::RangeMask, 1, 1},     {OpKind::CausalMask, 1, 1},
        {OpKind::RelPosBias, 2, 2},    {OpKind::Softmax, 1, 1},
        {OpKind::LayerNormOp, 3, 3},   {OpKind::Dropout, 1, 1},
        {OpKind::Matmul, 2, 2},        {OpKind::LinearOp, 2, 3},
        {OpKind::TransposeLast2, 1, 1}, {OpKind::Reshape, 1, 1},
        {OpKind::Permute, 1, 1},       {OpKind::Concat, 1, graph::kVariadic},
        {OpKind::Narrow, 1, 1},        {OpKind::EmbeddingOp, 2, 2},
        {OpKind::CrossEntropyOp, 2, 2}, {OpKind::MseLossOp, 2, 2},
        {OpKind::Conv2dOp, 2, 2},      {OpKind::BatchNormOp, 3, 3},
        {OpKind::GlobalAvgPoolOp, 1, 1}, {OpKind::AllReduce, 1, 1},
        {OpKind::AllGather, 1, 1},     {OpKind::ReduceScatter, 1, 1},
        {OpKind::Identity, 1, 1},
    };
    ASSERT_EQ(expected.size(), graph::kNumOpKinds);
    for (const Expect& e : expected) {
        const OpSchema& op = opSchema(e.kind);
        EXPECT_EQ(op.min_arity, e.min_arity) << op.name;
        EXPECT_EQ(op.max_arity, e.max_arity) << op.name;
        const std::string name = op.name;
        EXPECT_EQ(op.is_view, name == "reshape" || name == "identity") << name;
        EXPECT_EQ(op.is_comm, name == "all_reduce" || name == "all_gather" ||
                                  name == "reduce_scatter")
            << name;
    }

    // The shared dispatch enforces the bounds before any rule runs.
    const Value x(Tensor::uniform({2, 3}, 1.0f, 1));
    EXPECT_THROW(nn::dispatchOp(OpKind::Add, {}, {x}), SlapoError);
    EXPECT_THROW(nn::dispatchOp(OpKind::Gelu, {}, {x, x}), SlapoError);
    EXPECT_THROW(nn::dispatchOp(OpKind::Concat, {{"axis", int64_t{0}}}, {}),
                 SlapoError);
    EXPECT_EQ(nn::dispatchOp(OpKind::Concat, {{"axis", int64_t{0}}},
                             {x, x, x, x, x})
                  .shape(),
              (Shape{10, 3}));
}

TEST(OpTable, InPlaceTwinsAreBitEqualToKernels)
{
    const std::set<std::string> expected_twins = {
        "add",  "sub",   "mul",        "div",         "scale",
        "add_scalar", "gelu", "relu",  "tanh",        "clamp",
        "range_mask", "causal_mask", "softmax",
    };
    const graph::AttrMap attrs = {
        {"factor", 0.37}, {"value", -1.25}, {"lo", -0.5}, {"hi", 0.6}};
    const Shape shape = {2, 3, 6, 6};
    std::set<std::string> twins;
    for (size_t i = 0; i < graph::kNumOpKinds; ++i) {
        const OpSchema& op = opSchema(kindAt(i));
        if (op.inplace == nullptr) {
            continue;
        }
        twins.insert(op.name);
        ASSERT_LE(op.max_arity, 2) << op.name;
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            const Tensor a = Tensor::uniform(shape, 2.0f, 100 * i + seed);
            // Second operands stay away from zero so div is well defined.
            const Tensor b = ops::addScalar(
                Tensor::uniform(shape, 1.0f, 100 * i + seed + 50), 3.0f);
            const Tensor* operands[2] = {&a, &b};
            const graph::OpArgs args({operands, size_t(op.min_arity)},
                                     attrs, op.name);
            const Tensor expected = op.kernel(args);

            Tensor out = a.clone();
            const Tensor* aliased[2] = {&out, &b};
            op.inplace(out, graph::OpArgs({aliased, size_t(op.min_arity)},
                                          attrs, op.name));
            EXPECT_TRUE(bitEqual(out, expected))
                << op.name << " seed " << seed;
        }
    }
    EXPECT_EQ(twins, expected_twins);
}

TEST(OpTable, EveryOpButVisionHasBackward)
{
    const std::set<std::string> forward_only = {"conv2d", "batch_norm",
                                                "global_avg_pool"};
    for (size_t i = 0; i < graph::kNumOpKinds; ++i) {
        const OpSchema& op = opSchema(kindAt(i));
        EXPECT_EQ(op.backward == nullptr, forward_only.count(op.name) == 1)
            << op.name;
    }

    // The engine reports a missing rule as a typed SlapoError.
    auto model =
        runtime::withCrossEntropyLoss(models::buildTinyModel("wideresnet"));
    model->initializeParams(5);
    runtime::AutogradEngine engine;
    try {
        engine.run(*model, {Tensor::uniform({2, 3, 16, 16}, 1.0f, 6),
                            Tensor::randint({2}, 10, 7)});
        FAIL() << "backward through vision ops must raise";
    } catch (const SlapoError& e) {
        EXPECT_NE(std::string(e.what()).find("backward not implemented"),
                  std::string::npos)
            << e.what();
    }
}

/** Marks of a plan over `g`, each checked against the op table. */
int64_t
checkedInPlaceMarks(const graph::Graph& g, const std::vector<Shape>& shapes)
{
    auto plan = graph::buildMemPlan(g, shapes);
    int64_t marks = 0;
    for (const Node* n : g.nodes()) {
        const graph::MemPlan::NodeActions* act = plan->at(n->id());
        if (act == nullptr || !act->inplace) {
            continue;
        }
        ++marks;
        EXPECT_EQ(n->kind(), NodeKind::CallOp) << n->name();
        EXPECT_NE(opSchema(n->op()).inplace, nullptr)
            << n->name() << " (" << graph::opKindName(n->op()) << ")";
    }
    return marks;
}

TEST(OpTable, MemPlanMarksOnlyOpsWithTwins)
{
    nn::TraceOptions flat;
    flat.flatten = true;
    flat.default_leaf_types = false;
    int64_t marks = 0;
    const std::vector<std::pair<std::string, std::vector<Shape>>> models = {
        {"bert", {{2, 8}}},
        {"opt", {{2, 8}}},
        {"t5", {{2, 8}, {2, 8}}},
        {"wideresnet", {{2, 3, 16, 16}}},
    };
    for (const auto& [name, shapes] : models) {
        auto model = models::buildTinyModel(name);
        auto g = nn::traceModule(*model, shapes, flat);
        marks += checkedInPlaceMarks(*g, shapes);
    }
    EXPECT_GT(marks, 0);

    // Liveness alone would allow these: each first operand dies at a
    // same-shaped op. Only the ops with a twin are marked.
    auto g = std::make_shared<graph::Graph>();
    Node* ph = g->createNode(NodeKind::Placeholder, "x");
    ph->setShapes({{4, 4}});
    {
        nn::TracingState state(g.get(), {});
        nn::TracingGuard guard(&state);
        Value x(Tensor::meta({4, 4}), ph);
        Value t = nn::F::transposeLast2(x);
        Value p = nn::F::permute(t, {1, 0});
        Value y = nn::F::gelu(p);
        Node* out = g->createNode(NodeKind::Output, "output");
        out->addInput(y.node());
        out->setShapes({y.shape()});
        g->setOutputNode(out);
    }
    EXPECT_EQ(checkedInPlaceMarks(*g, {{4, 4}}), 1);
}

// --- static shape inference vs. execution -------------------------------

/**
 * Builds a random chain of ops by tracing nn::F calls into a graph, and
 * keeps the concrete inputs each placeholder stands for.
 */
class RandomChain
{
  public:
    explicit RandomChain(uint64_t seed) : rng_(seed), seed_(seed) {}

    std::shared_ptr<graph::Graph>
    build(int steps)
    {
        nn::TracingState state(graph_.get(), {});
        nn::TracingGuard guard(&state);
        Value cur = input(randomShape(3), false);
        for (int i = 0; i < steps; ++i) {
            if (std::optional<Value> next = step(cur)) {
                outputs_.push_back(*next);
                if (next->shape() != Shape{1}) {
                    cur = *next;
                }
            }
        }
        Node* out = graph_->createNode(NodeKind::Output, "output");
        std::vector<Shape> shapes;
        for (const Value& v : outputs_) {
            out->addInput(v.node());
            shapes.push_back(v.shape());
        }
        out->setShapes(shapes);
        graph_->setOutputNode(out);
        return graph_;
    }

    std::vector<Value>
    inputs() const
    {
        std::vector<Value> values;
        for (const Tensor& t : inputs_) {
            values.emplace_back(t);
        }
        return values;
    }

  private:
    int64_t
    pick(int64_t lo, int64_t hi)
    {
        return std::uniform_int_distribution<int64_t>(lo, hi)(rng_);
    }

    Shape
    randomShape(size_t rank)
    {
        Shape s(rank);
        for (int64_t& d : s) {
            d = pick(1, 4);
        }
        return s;
    }

    /** A new placeholder; `positive` keeps values in (2, 4). */
    Value
    input(const Shape& shape, bool positive)
    {
        Tensor t = Tensor::uniform(shape, 1.0f, seed_ * 1000 + inputs_.size());
        if (positive) {
            t = ops::addScalar(t, 3.0f);
        }
        return placeholder(std::move(t));
    }

    Value
    placeholder(Tensor t)
    {
        Node* ph = graph_->createNode(NodeKind::Placeholder, "in");
        ph->setShapes({t.shape()});
        Value v(Tensor::meta(t.shape()), ph);
        inputs_.push_back(std::move(t));
        return v;
    }

    /** `shape` with a random subset of extents broadcast to 1. */
    Shape
    broadcastable(Shape shape)
    {
        for (int64_t& d : shape) {
            if (pick(0, 2) == 0) {
                d = 1;
            }
        }
        if (!shape.empty() && pick(0, 2) == 0) {
            shape.erase(shape.begin());
        }
        return shape;
    }

    std::optional<Value>
    step(const Value& cur)
    {
        namespace F = nn::F;
        const Shape& s = cur.shape();
        const int64_t rank = static_cast<int64_t>(s.size());
        if (numelOf(s) > 2048) {
            return F::narrow(cur, 0, 0, 1);
        }
        switch (pick(0, 26)) {
          case 0: return F::add(cur, input(broadcastable(s), false));
          case 1: return F::sub(input(broadcastable(s), false), cur);
          case 2: return F::mul(cur, input(broadcastable(s), false));
          case 3: return F::div(cur, input(broadcastable(s), true));
          case 4: return F::scale(cur, 0.5);
          case 5: return F::addScalar(cur, -0.25);
          case 6: return F::gelu(cur);
          case 7: return F::relu(cur);
          case 8: return F::tanh(cur);
          case 9: return F::clampScalar(cur, -0.3, 0.4);
          case 10: return F::rangeMask(cur, -0.3, 0.4);
          case 11:
            return rank >= 2 ? std::optional(F::causalMask(cur)) : std::nullopt;
          case 12: return F::softmax(cur);
          case 13: {
            const Shape feat = {s.back()};
            return F::layerNorm(cur, input(feat, false), input(feat, false),
                                1e-5);
          }
          case 14: return F::dropout(cur, 0.25, pick(1, 99));
          case 15: {
            if (rank < 2) {
                return std::nullopt;
            }
            Shape rhs = {s.back(), pick(1, 4)};
            if (rank >= 3 && pick(0, 1) == 0) {
                rhs.insert(rhs.begin(), s[rank - 3]);
            }
            return F::matmul(cur, input(rhs, false));
          }
          case 16: {
            const int64_t out = pick(1, 4);
            Value w = input({out, s.back()}, false);
            return pick(0, 1) == 0 ? F::linear(cur, w, Value())
                                   : F::linear(cur, w, input({out}, false));
          }
          case 17:
            return rank >= 2 ? std::optional(F::transposeLast2(cur))
                             : std::nullopt;
          case 18: {
            if (rank >= 2 && rank <= 3) {
                Shape flat(s.begin(), s.end() - 2);
                flat.push_back(s[rank - 2] * s[rank - 1]);
                return F::reshape(cur, flat);
            }
            return F::reshape(cur, {numelOf(s), 1});
          }
          case 19: {
            std::vector<int64_t> perm(rank);
            for (int64_t d = 0; d < rank; ++d) perm[d] = d;
            std::shuffle(perm.begin(), perm.end(), rng_);
            return F::permute(cur, perm);
          }
          case 20: {
            const int64_t axis = pick(-rank, rank - 1);
            Shape other = s;
            other[axis < 0 ? axis + rank : axis] = pick(1, 3);
            return F::concat({cur, input(other, false), cur}, axis);
          }
          case 21: {
            const int64_t axis = pick(-rank, rank - 1);
            const int64_t extent = s[axis < 0 ? axis + rank : axis];
            const int64_t start = pick(0, extent - 1);
            return F::narrow(cur, axis, start, pick(1, extent - start));
          }
          case 22: return F::identity(cur);
          case 23: return F::mseLoss(cur, input(s, false));
          case 24: {
            const int64_t vocab = pick(2, 6);
            Value ids = placeholder(Tensor::randint(s, vocab, pick(1, 99)));
            return F::embedding(ids, input({vocab, pick(1, 4)}, false));
          }
          case 25: {
            if (rank < 2) {
                return std::nullopt;
            }
            const int64_t classes = s.back();
            Shape rows(s.begin(), s.end() - 1);
            Value targets =
                placeholder(Tensor::randint(rows, classes, pick(1, 99)));
            return F::crossEntropy(cur, targets);
          }
          default: {
            const int64_t axis = pick(0, rank - 1);
            switch (pick(0, 2)) {
              case 0: return F::allReduce(cur);
              case 1: return F::allGather(cur, axis);
              default: return F::reduceScatter(cur, axis);
            }
          }
        }
    }

    std::mt19937_64 rng_;
    uint64_t seed_;
    std::shared_ptr<graph::Graph> graph_ = std::make_shared<graph::Graph>();
    std::vector<Tensor> inputs_;
    std::vector<Value> outputs_;
};

void
expectStaticMatchesExecution(const graph::Graph& g,
                             const std::vector<Value>& inputs)
{
    analysis::Diagnostics diags;
    analysis::inferGraphShapes(g, "", diags);
    for (const analysis::Diagnostic& d : diags.all()) {
        EXPECT_NE(d.code.rfind("SLP1", 0), 0u) << diags.toString();
    }
    const std::vector<Value> outs = nn::interpretGraph(g, nullptr, inputs);
    const Node* out = g.outputNode();
    ASSERT_EQ(outs.size(), out->inputs().size());
    for (size_t i = 0; i < outs.size(); ++i) {
        ASSERT_TRUE(outs[i].tensor().materialized());
        EXPECT_EQ(outs[i].shape(), out->inputs()[i]->shape())
            << graph::opKindName(out->inputs()[i]->op());
    }
}

TEST(OpShapes, StaticInferenceMatchesExecutionOnRandomOpChains)
{
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RandomChain chain(seed);
        auto g = chain.build(12);
        expectStaticMatchesExecution(*g, chain.inputs());
    }
}

TEST(OpShapes, StaticInferenceMatchesExecutionOnVisionOps)
{
    std::mt19937_64 rng(7);
    auto pick = [&](int64_t lo, int64_t hi) {
        return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
    };
    for (int trial = 0; trial < 20; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const int64_t n = pick(1, 2), c = pick(1, 3), o = pick(1, 4);
        const int64_t k = pick(1, 3), pad = pick(0, 1), stride = pick(1, 2);
        const int64_t h = pick(k, 6), w = pick(k, 6);
        const std::vector<Tensor> tensors = {
            Tensor::uniform({n, c, h, w}, 1.0f, 10 * trial + 1),
            Tensor::uniform({o, c, k, k}, 1.0f, 10 * trial + 2),
            Tensor::uniform({o}, 1.0f, 10 * trial + 3),
            Tensor::uniform({o}, 1.0f, 10 * trial + 4),
        };
        auto g = std::make_shared<graph::Graph>();
        std::vector<Value> ins;
        for (const Tensor& t : tensors) {
            Node* ph = g->createNode(NodeKind::Placeholder, "in");
            ph->setShapes({t.shape()});
            ins.emplace_back(Tensor::meta(t.shape()), ph);
        }
        {
            nn::TracingState state(g.get(), {});
            nn::TracingGuard guard(&state);
            Value y = nn::F::conv2d(ins[0], ins[1], stride, pad);
            Value z = nn::F::batchNorm2d(y, ins[2], ins[3], 1e-5);
            Value p = nn::F::globalAvgPool(nn::F::relu(z));
            Node* out = g->createNode(NodeKind::Output, "output");
            for (const Value& v : {y, z, p}) {
                out->addInput(v.node());
            }
            out->setShapes({y.shape(), z.shape(), p.shape()});
            g->setOutputNode(out);
        }
        std::vector<Value> values;
        for (const Tensor& t : tensors) {
            values.emplace_back(t);
        }
        expectStaticMatchesExecution(*g, values);
    }
}

// --- rejections: the static checker refuses what dispatch refuses ------

/** One malformed invocation of `op`. */
struct Reject
{
    const char* why;
    OpKind op;
    std::vector<Shape> operands;
    graph::AttrMap attrs = {};
};

/** The static checker's findings on a graph of `r.operands` placeholders
 * feeding one `r.op` node with `r.attrs`. */
analysis::Diagnostics
inferMalformed(const Reject& r)
{
    auto g = std::make_shared<graph::Graph>();
    std::vector<Node*> inputs;
    for (const Shape& shape : r.operands) {
        Node* ph = g->createNode(NodeKind::Placeholder, "in");
        ph->setShapes({shape});
        inputs.push_back(ph);
    }
    Node* call = g->createNode(NodeKind::CallOp, opSchema(r.op).name);
    call->setOp(r.op);
    for (Node* in : inputs) {
        call->addInput(in);
    }
    for (const auto& [key, value] : r.attrs) {
        call->setAttr(key, value);
    }
    call->setShapes({{1}});
    Node* out = g->createNode(NodeKind::Output, "output");
    out->addInput(call);
    out->setShapes({{1}});
    g->setOutputNode(out);
    analysis::Diagnostics diags;
    analysis::inferGraphShapes(*g, "", diags);
    return diags;
}

TEST(OpShapes, StaticCheckerAndDispatchRejectTheSameInputs)
{
    const int64_t zero = 0, one = 1, two = 2;
    const std::vector<Reject> rejects = {
        {"shapes do not broadcast", OpKind::Add, {{2, 3}, {4, 3}}},
        {"shapes do not broadcast", OpKind::Sub, {{2, 3}, {2, 4}}},
        {"one operand", OpKind::Mul, {{2, 3}}},
        {"shapes do not broadcast", OpKind::Div, {{2, 3}, {3, 2}}},
        {"two operands", OpKind::Scale, {{2}, {2}}, {{"factor", 2.0}}},
        {"no operand", OpKind::AddScalar, {}, {{"value", 1.0}}},
        {"two operands", OpKind::Gelu, {{2}, {2}}},
        {"two operands", OpKind::Relu, {{2}, {2}}},
        {"two operands", OpKind::Tanh, {{2}, {2}}},
        {"two operands", OpKind::Clamp, {{2}, {2}}, {{"lo", 0.0}, {"hi", 1.0}}},
        {"two operands", OpKind::RangeMask, {{2}, {2}},
         {{"lo", 0.0}, {"hi", 1.0}}},
        {"rank 1", OpKind::CausalMask, {{4}}},
        {"head count", OpKind::RelPosBias, {{1, 2, 3, 3}, {3, 5}}},
        {"3-D scores", OpKind::RelPosBias, {{2, 3, 3}, {2, 5}}},
        {"two operands", OpKind::Softmax, {{2}, {2}}},
        {"gamma extent", OpKind::LayerNormOp, {{2, 4}, {3}, {4}},
         {{"eps", 1e-5}}},
        {"beta extent", OpKind::LayerNormOp, {{2, 4}, {4}, {4, 1}},
         {{"eps", 1e-5}}},
        {"rank 0", OpKind::LayerNormOp, {{}, {1}, {1}}, {{"eps", 1e-5}}},
        {"two operands", OpKind::Dropout, {{2}, {2}},
         {{"p", 0.1}, {"seed", one}}},
        {"inner extent", OpKind::Matmul, {{2, 3}, {4, 5}}},
        {"rank 1", OpKind::Matmul, {{3}, {3, 2}}},
        {"batch extents", OpKind::Matmul, {{2, 2, 3}, {3, 3, 4}}},
        {"weight rank", OpKind::LinearOp, {{2, 4}, {4}}},
        {"in features", OpKind::LinearOp, {{2, 4}, {3, 5}}},
        {"bias extent", OpKind::LinearOp, {{2, 4}, {3, 4}, {4}}},
        {"bias rank", OpKind::LinearOp, {{2, 4}, {3, 4}, {3, 1}}},
        {"rank 0 input", OpKind::LinearOp, {{}, {3, 1}}},
        {"rank 1", OpKind::TransposeLast2, {{4}}},
        {"element count", OpKind::Reshape, {{2, 3}},
         {{"shape", std::vector<int64_t>{5}}}},
        {"negative extents", OpKind::Reshape, {{2, 3}},
         {{"shape", std::vector<int64_t>{-2, -3}}}},
        {"no 'shape'", OpKind::Reshape, {{2, 3}}},
        {"'shape' not a list", OpKind::Reshape, {{2, 3}}, {{"shape", two}}},
        {"axis out of range", OpKind::Permute, {{2, 3}},
         {{"perm", std::vector<int64_t>{0, 5}}}},
        {"repeated axis", OpKind::Permute, {{2, 3}},
         {{"perm", std::vector<int64_t>{0, 0}}}},
        {"negative axis", OpKind::Permute, {{2, 3}},
         {{"perm", std::vector<int64_t>{-1, 0}}}},
        {"perm rank", OpKind::Permute, {{2, 3}},
         {{"perm", std::vector<int64_t>{0}}}},
        {"lower-rank operand", OpKind::Concat, {{2, 3}, {2}}, {{"axis", one}}},
        {"off-axis extent", OpKind::Concat, {{2, 3}, {4, 4}}, {{"axis", zero}}},
        {"axis out of range", OpKind::Concat, {{2, 3}, {2, 3}},
         {{"axis", two}}},
        {"axis out of range", OpKind::Narrow, {{2, 3}},
         {{"axis", int64_t{3}}, {"start", zero}, {"length", one}}},
        {"zero length", OpKind::Narrow, {{2, 3}},
         {{"axis", one}, {"start", zero}, {"length", zero}}},
        {"past the end", OpKind::Narrow, {{2, 3}},
         {{"axis", one}, {"start", two}, {"length", two}}},
        {"negative start", OpKind::Narrow, {{2, 3}},
         {{"axis", one}, {"start", int64_t{-1}}, {"length", one}}},
        {"3-D table", OpKind::EmbeddingOp, {{2, 4}, {16, 8, 2}}},
        {"one operand", OpKind::CrossEntropyOp, {{2, 5}}},
        {"three operands", OpKind::MseLossOp, {{2}, {2}, {2}}},
        {"zero stride", OpKind::Conv2dOp, {{1, 1, 4, 4}, {1, 1, 3, 3}},
         {{"stride", zero}, {"pad", zero}}},
        {"negative stride", OpKind::Conv2dOp, {{1, 1, 4, 4}, {1, 1, 3, 3}},
         {{"stride", int64_t{-1}}, {"pad", zero}}},
        {"kernel wider than input", OpKind::Conv2dOp,
         {{1, 1, 2, 2}, {1, 1, 3, 3}}, {{"stride", two}, {"pad", zero}}},
        {"channel mismatch", OpKind::Conv2dOp, {{1, 2, 4, 4}, {1, 1, 3, 3}},
         {{"stride", one}, {"pad", zero}}},
        {"no 'stride'", OpKind::Conv2dOp, {{1, 1, 4, 4}, {1, 1, 3, 3}},
         {{"pad", zero}}},
        {"gamma extent", OpKind::BatchNormOp, {{2, 3, 4, 4}, {4}, {3}},
         {{"eps", 1e-5}}},
        {"rank 2", OpKind::BatchNormOp, {{2, 3}, {3}, {3}}, {{"eps", 1e-5}}},
        {"rank 3", OpKind::GlobalAvgPoolOp, {{2, 3, 4}}},
        {"two operands", OpKind::AllReduce, {{2}, {2}}, {{"axis", -one}}},
        {"axis out of range", OpKind::AllGather, {{2, 3}}, {{"axis", two}}},
        {"no 'axis'", OpKind::AllGather, {{2, 3}}},
        {"axis out of range", OpKind::ReduceScatter, {{2, 3}},
         {{"axis", int64_t{-3}}}},
        {"two operands", OpKind::Identity, {{2}, {2}}},
    };
    std::set<OpKind> covered;
    for (const Reject& r : rejects) {
        SCOPED_TRACE(std::string(opSchema(r.op).name) + ": " + r.why);
        covered.insert(r.op);
        const analysis::Diagnostics diags = inferMalformed(r);
        EXPECT_TRUE(diags.hasCode("SLP103")) << diags.toString();

        std::vector<Value> operands;
        for (const Shape& shape : r.operands) {
            operands.emplace_back(Tensor::meta(shape));
        }
        EXPECT_THROW(nn::dispatchOp(r.op, r.attrs, operands), SlapoError);
    }
    EXPECT_EQ(covered.size(), graph::kNumOpKinds);
}

TEST(OpShapes, MalformedOperandsRaiseThroughF)
{
    // Each rule runs before its kernel: a rejected invocation raises the
    // same typed error whether the operands are meta or materialized.
    namespace F = nn::F;
    for (const bool materialized : {false, true}) {
        SCOPED_TRACE(materialized ? "materialized" : "meta");
        auto make = [&](const Shape& shape) {
            return materialized ? Value(Tensor::uniform(shape, 1.0f, 3))
                                : Value(Tensor::meta(shape));
        };
        const Value x = make({2, 3});
        EXPECT_THROW(F::permute(x, {0, 5}), SlapoError);
        EXPECT_THROW(F::permute(x, {0, 0}), SlapoError);
        EXPECT_THROW(F::reshape(x, {-2, -3}), SlapoError);
        EXPECT_THROW(F::concat({x, make({2})}, 1), SlapoError);
        EXPECT_THROW(F::narrow(x, 3, 0, 1), SlapoError);
        EXPECT_THROW(F::narrow(x, 1, 0, 0), SlapoError);
        EXPECT_THROW(F::conv2d(make({1, 1, 4, 4}), make({1, 1, 3, 3}), 0, 0),
                     SlapoError);
        EXPECT_THROW(F::linear(x, make({4, 3}), make({3})), SlapoError);
        EXPECT_THROW(F::layerNorm(x, make({2}), make({3}), 1e-5), SlapoError);
    }
}

} // namespace
} // namespace slapo
