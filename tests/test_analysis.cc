/**
 * @file
 * The static schedule verifier (docs/VERIFICATION.md, stage one):
 * shape/dtype inference, the sharding-consistency lattice, pipeline
 * split checks, the memory-plan alias audit, and the lint gates wired
 * into verification, replication, partitioning, and tuner admission.
 *
 * Every "IsCaught" test here runs with *unmaterialized* parameters —
 * the analyses must produce their verdicts from shapes and schedule
 * state alone, with zero tensor execution.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/lint.h"
#include "analysis/memplan_audit.h"
#include "analysis/pipeline_check.h"
#include "analysis/shape_infer.h"
#include "analysis/sharding.h"
#include "core/auto_shard.h"
#include "core/pipeline.h"
#include "core/schedule.h"
#include "core/verify.h"
#include "graph/memplan.h"
#include "json_validator.h"
#include "models/registry.h"
#include "nn/layers.h"
#include "nn/tracer.h"
#include "obs/run_log.h"
#include "runtime/dist_executor.h"
#include "tuner/tuner.h"

namespace slapo {
namespace {

using analysis::Diagnostics;
using analysis::Severity;
using analysis::StaticLintError;
using testutil::JsonValidator;

/** RAII: force the lint gates on for the test, leave them on after. */
class LintOn
{
  public:
    LintOn() { analysis::setLintEnabled(true); }
    ~LintOn() { analysis::setLintEnabled(true); }
};

std::string
scratchPath(const std::string& name)
{
    const auto dir = std::filesystem::temp_directory_path() / "slapo_lint";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / name).string();
    std::remove(path.c_str());
    return path;
}

std::vector<std::string>
readLines(const std::string& path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) {
            lines.push_back(line);
        }
    }
    return lines;
}

/** First FFN path of a transformer model ("" if none). */
std::string
findFfn(nn::Module& model)
{
    for (auto& [path, m] : model.namedModules()) {
        if (m->typeName() == "FFN") {
            return path;
        }
    }
    return "";
}

// --- clean schedules must lint clean --------------------------------------

TEST(Lint, AutoShardedModelLintsClean)
{
    LintOn on;
    auto model = models::buildTinyModel("bert");
    auto sch = core::Schedule::create(model, 2);
    core::autoShard(*sch);
    // Trace the FFNs so shape inference, the graph-level lattice walk,
    // and the memory-plan audit all exercise real graphs.
    nn::TraceOptions topts;
    topts.flatten = true;
    for (auto& [path, m] : model->namedModules()) {
        if (m->typeName() == "FFN") {
            (*sch)[path].trace({{2, 8, 16}}, topts);
        }
    }

    Diagnostics diags = analysis::lintModule(*model, 2);
    EXPECT_FALSE(diags.hasErrors()) << diags.toString();
}

TEST(Lint, UnscheduledModelLintsClean)
{
    LintOn on;
    auto model = models::buildTinyModel("bert");
    Diagnostics diags = analysis::lintModule(*model, 1);
    EXPECT_FALSE(diags.hasErrors()) << diags.toString();
}

// --- acceptance: missing .sync() after .shard() ---------------------------

TEST(Sharding, MissingSyncAfterShardIsCaught)
{
    // Column-parallel fc1 + row-parallel fc2 with the mandatory forward
    // all-reduce omitted: every rank would return a partial sum.
    auto model = models::buildTinyModel("bert");
    auto sch = core::Schedule::create(model, 2);
    const std::string ffn = findFfn(*model);
    ASSERT_FALSE(ffn.empty());
    (*sch)[ffn]["fc1"].shard(std::vector<std::string>{"weight", "bias"}, 0);
    (*sch)[ffn]["fc2"].shard("weight", 1);
    // (no .sync(Forward) — the bug under test)

    Diagnostics diags = analysis::lintModule(*model, 2);
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.hasCode("SLP231")) << diags.toString();

    // With the canonical forward all-reduce restored the finding is gone.
    (*sch)[ffn]["fc2"].sync(nn::SyncDirection::Forward);
    Diagnostics fixed = analysis::lintModule(*model, 2);
    EXPECT_FALSE(fixed.hasErrors()) << fixed.toString();
}

TEST(Sharding, MisdirectedSyncIsWarned)
{
    // The aggregation exists but points backward: still a partial sum in
    // the forward pass — flagged as both the escape and the direction.
    auto model = models::buildTinyModel("bert");
    auto sch = core::Schedule::create(model, 2);
    const std::string ffn = findFfn(*model);
    ASSERT_FALSE(ffn.empty());
    (*sch)[ffn]["fc2"].shard("weight", 1);
    (*sch)[ffn]["fc2"].sync(nn::SyncDirection::Backward);

    Diagnostics diags = analysis::lintModule(*model, 2);
    EXPECT_TRUE(diags.hasCode("SLP231")) << diags.toString();
    EXPECT_TRUE(diags.hasCode("SLP211")) << diags.toString();
}

TEST(Sharding, SyncKindMismatchIsCaught)
{
    // All-reducing a column-sharded activation sums *different* slices.
    auto model = models::buildTinyModel("bert");
    auto sch = core::Schedule::create(model, 2);
    const std::string ffn = findFfn(*model);
    ASSERT_FALSE(ffn.empty());
    (*sch)[ffn]["fc1"].shard(std::vector<std::string>{"weight", "bias"}, 0);
    (*sch)[ffn]["fc1"].sync(nn::SyncDirection::Forward,
                            nn::SyncKind::AllReduce);

    Diagnostics diags = analysis::lintModule(*model, 2);
    EXPECT_TRUE(diags.hasCode("SLP212")) << diags.toString();
}

TEST(Sharding, RedundantDuplicateSyncIsWarnedNotErrored)
{
    auto model = models::buildTinyModel("bert");
    auto sch = core::Schedule::create(model, 2);
    const std::string ffn = findFfn(*model);
    ASSERT_FALSE(ffn.empty());
    (*sch)[ffn]["fc1"].shard(std::vector<std::string>{"weight", "bias"}, 0);
    (*sch)[ffn]["fc1"].sync(nn::SyncDirection::Backward);
    (*sch)[ffn]["fc1"].sync(nn::SyncDirection::Backward);

    Diagnostics diags = analysis::lintModule(*model, 2);
    EXPECT_TRUE(diags.hasCode("SLP220")) << diags.toString();
    EXPECT_FALSE(diags.hasErrors()) << diags.toString();
    EXPECT_GE(diags.count(Severity::Warning), 1u);
}

// --- acceptance: shard axis not dividing the extent -----------------------

TEST(Sharding, ShardAxisNotDividingExtentIsCaught)
{
    // Schedule::shard validates divisibility up front, so forge the spec
    // the way a hand-rolled (or deserialized) schedule state could:
    // weight (5, 7) split 2 ways on axis 0 leaves an uneven remainder.
    auto lin = std::make_shared<nn::Linear>(7, 5);
    nn::ShardSpec spec;
    spec.axis = 0;
    spec.world_size = 2;
    lin->meta().sharded_params["weight"] = spec;

    Diagnostics diags;
    analysis::checkSharding(*lin, 2, diags);
    EXPECT_TRUE(diags.hasCode("SLP202")) << diags.toString();
}

TEST(Sharding, InterleaveGroupsCountTowardDivisibility)
{
    // (8, 4) on axis 0 divides by world 2 but not by interleave 3 x 2.
    auto lin = std::make_shared<nn::Linear>(4, 8);
    nn::ShardSpec spec;
    spec.axis = 0;
    spec.world_size = 2;
    spec.interleave = 3;
    lin->meta().sharded_params["weight"] = spec;

    Diagnostics diags;
    analysis::checkSharding(*lin, 2, diags);
    EXPECT_TRUE(diags.hasCode("SLP202")) << diags.toString();
}

TEST(Sharding, SpecWorldSizeMismatchIsCaught)
{
    auto lin = std::make_shared<nn::Linear>(4, 8);
    nn::ShardSpec spec;
    spec.axis = 0;
    spec.world_size = 4;
    lin->meta().sharded_params["weight"] = spec;

    Diagnostics diags;
    analysis::checkSharding(*lin, 2, diags);
    EXPECT_TRUE(diags.hasCode("SLP203")) << diags.toString();
}

TEST(Sharding, OrphanedSyncIsCaught)
{
    // A sync with no shard anywhere beneath it: Schedule::sync refuses
    // to create this, so forge the state directly.
    auto lin = std::make_shared<nn::Linear>(4, 4);
    nn::SyncSpec sync;
    sync.direction = nn::SyncDirection::Forward;
    lin->meta().syncs.push_back(sync);

    Diagnostics diags;
    analysis::checkSharding(*lin, 2, diags);
    EXPECT_TRUE(diags.hasCode("SLP210")) << diags.toString();
}

// --- unshard() cleanup, with the sharding analysis as oracle --------------

TEST(Unshard, DropsOwnOrphanedSyncs)
{
    auto model = models::buildTinyModel("bert");
    auto sch = core::Schedule::create(model, 2);
    const std::string ffn = findFfn(*model);
    ASSERT_FALSE(ffn.empty());
    (*sch)[ffn]["fc2"].shard("weight", 1);
    (*sch)[ffn]["fc2"].sync(nn::SyncDirection::Forward);

    (*sch)[ffn]["fc2"].unshard("weight");

    nn::Module& fc2 = *(*sch)[ffn]["fc2"].module();
    EXPECT_TRUE(fc2.meta().syncs.empty());
    Diagnostics diags = analysis::lintModule(*model, 2);
    EXPECT_FALSE(diags.hasErrors()) << diags.toString();
}

TEST(Unshard, DropsAncestorOrphanedSyncs)
{
    // The canonical attention recipe hangs the sync on the *container*
    // while the shard sits on a child — unsharding the child must clean
    // the ancestor's aggregation point too, or re-applying the schedule
    // trips over an orphaned sync.
    auto model = models::buildTinyModel("bert");
    auto sch = core::Schedule::create(model, 2);
    const std::string ffn = findFfn(*model);
    ASSERT_FALSE(ffn.empty());
    (*sch)[ffn]["fc1"].shard(std::vector<std::string>{"weight", "bias"}, 0);
    (*sch)[ffn].sync(nn::SyncDirection::Backward);

    (*sch)[ffn]["fc1"].unshard("weight");
    (*sch)[ffn]["fc1"].unshard("bias");

    nn::Module& ffn_module = *(*sch)[ffn].module();
    EXPECT_TRUE(ffn_module.meta().syncs.empty());
    Diagnostics diags = analysis::lintModule(*model, 2);
    EXPECT_FALSE(diags.hasErrors()) << diags.toString();
}

TEST(Unshard, KeepsSyncsWhileOtherShardsRemain)
{
    auto model = models::buildTinyModel("bert");
    auto sch = core::Schedule::create(model, 2);
    const std::string ffn = findFfn(*model);
    ASSERT_FALSE(ffn.empty());
    (*sch)[ffn]["fc1"].shard(std::vector<std::string>{"weight", "bias"}, 0);
    (*sch)[ffn].sync(nn::SyncDirection::Backward);

    (*sch)[ffn]["fc1"].unshard("bias"); // weight still sharded

    nn::Module& ffn_module = *(*sch)[ffn].module();
    EXPECT_EQ(ffn_module.meta().syncs.size(), 1u);
}

// --- acceptance: pipeline split with a cross-stage data edge --------------

/** Sequential of two linears, traced; split annotation on child "0". */
std::shared_ptr<nn::Sequential>
buildSplitChain()
{
    auto seq = std::make_shared<nn::Sequential>();
    seq->append(std::make_shared<nn::Linear>(8, 8));
    seq->append(std::make_shared<nn::Linear>(8, 8));
    seq->meta().traced_graph = nn::traceModule(*seq, {{2, 8}});
    seq->child("0")->meta().pipeline_split_after = true;
    return seq;
}

TEST(Pipeline, CleanChainPassesTheCheck)
{
    auto seq = buildSplitChain();
    Diagnostics diags;
    analysis::checkPipeline(*seq, 4, diags);
    EXPECT_FALSE(diags.hasErrors()) << diags.toString();
}

TEST(Pipeline, CrossStageDataEdgeIsCaught)
{
    auto seq = buildSplitChain();
    // Forge a residual connection across the cut: the second stage's
    // child also reads the model input.
    graph::Graph& g = *seq->meta().traced_graph;
    graph::Node* placeholder = nullptr;
    graph::Node* second_call = nullptr;
    for (graph::Node* node : g.nodes()) {
        if (node->kind() == graph::NodeKind::Placeholder) {
            placeholder = node;
        }
        if (node->kind() == graph::NodeKind::CallModule) {
            second_call = node; // last CallModule wins
        }
    }
    ASSERT_NE(placeholder, nullptr);
    ASSERT_NE(second_call, nullptr);
    second_call->addInput(placeholder);

    Diagnostics diags;
    analysis::checkPipeline(*seq, 4, diags);
    EXPECT_TRUE(diags.hasCode("SLP304")) << diags.toString();

    // The partitioner's gate rejects it before any stage is built.
    auto sch = core::Schedule::create(seq, 4);
    EXPECT_THROW(core::partitionPipeline(*sch, {{2, 8}}), StaticLintError);
}

TEST(Pipeline, ComputeOutsideChildrenIsCaught)
{
    auto seq = buildSplitChain();
    // A residual add at container level: not a CallModule chain anymore.
    graph::Graph& g = *seq->meta().traced_graph;
    graph::Node* placeholder = g.placeholders()[0];
    graph::Node* out = g.outputNode();
    graph::Node* last_call = out->inputs()[0];
    graph::Node* add = g.createNodeBefore(graph::NodeKind::CallOp, "res", out);
    add->setOp(graph::OpKind::Add);
    add->addInput(last_call);
    add->addInput(placeholder);
    add->setShapes({{2, 8}});
    out->replaceInput(last_call, add);

    Diagnostics diags;
    analysis::checkPipeline(*seq, 4, diags);
    EXPECT_TRUE(diags.hasCode("SLP305")) << diags.toString();
}

TEST(Pipeline, MoreStagesThanWorldIsCaught)
{
    auto seq = buildSplitChain();
    Diagnostics diags;
    analysis::checkPipeline(*seq, 1, diags); // 2 stages, world of 1
    EXPECT_TRUE(diags.hasCode("SLP301")) << diags.toString();
}

TEST(Pipeline, TrailingSplitIsCaught)
{
    auto seq = buildSplitChain();
    seq->child("0")->meta().pipeline_split_after = false;
    seq->child("1")->meta().pipeline_split_after = true; // after the end
    Diagnostics diags;
    analysis::checkPipeline(*seq, 4, diags);
    EXPECT_TRUE(diags.hasCode("SLP303")) << diags.toString();
}

TEST(Pipeline, RootSplitIsCaught)
{
    auto seq = buildSplitChain();
    seq->child("0")->meta().pipeline_split_after = false;
    seq->meta().pipeline_split_after = true;
    Diagnostics diags;
    analysis::checkPipeline(*seq, 4, diags);
    EXPECT_TRUE(diags.hasCode("SLP302")) << diags.toString();
}

// --- acceptance: shape contradiction in a replaced subgraph ---------------

TEST(ShapeInfer, ShapeContradictionIsCaught)
{
    // Trace, then "replace" a node the way a buggy rewrite would: the
    // declared output shape no longer matches what the op computes.
    auto seq = std::make_shared<nn::Sequential>();
    seq->append(std::make_shared<nn::Linear>(8, 16));
    seq->append(
        std::make_shared<nn::Activation>(nn::Activation::Kind::Gelu));
    auto g = nn::traceModule(*seq, {{2, 8}}, nn::TraceOptions{/*flatten=*/true});
    seq->meta().traced_graph = g;

    Diagnostics clean;
    analysis::inferGraphShapes(*g, "", clean);
    EXPECT_FALSE(clean.hasErrors()) << clean.toString();

    // Corrupt the declared shape of the first float-producing op.
    for (graph::Node* node : g->nodes()) {
        if (node->kind() == graph::NodeKind::CallOp) {
            node->setShapes({{2, 17}});
            break;
        }
    }
    Diagnostics diags;
    analysis::inferGraphShapes(*g, "", diags);
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_TRUE(diags.hasCode("SLP101") || diags.hasCode("SLP103"))
        << diags.toString();
}

TEST(ShapeInfer, FloatEmbeddingIdsAreCaught)
{
    // ids -> gelu -> embedding: the lookup input became real-valued.
    auto g = std::make_shared<graph::Graph>();
    graph::Node* ids = g->createNode(graph::NodeKind::Placeholder, "ids");
    ids->setShapes({{2, 4}});
    graph::Node* gelu = g->createNode(graph::NodeKind::CallOp, "gelu");
    gelu->setOp(graph::OpKind::Gelu);
    gelu->addInput(ids);
    gelu->setShapes({{2, 4}});
    graph::Node* table = g->createNode(graph::NodeKind::Placeholder, "table");
    table->setShapes({{16, 8}});
    graph::Node* emb = g->createNode(graph::NodeKind::CallOp, "embedding");
    emb->setOp(graph::OpKind::EmbeddingOp);
    emb->addInput(gelu);
    emb->addInput(table);
    emb->setShapes({{2, 4, 8}});
    graph::Node* out = g->createNode(graph::NodeKind::Output, "out");
    out->addInput(emb);
    out->setShapes({{2, 4, 8}});
    g->setOutputNode(out);

    Diagnostics diags;
    analysis::inferGraphShapes(*g, "", diags);
    EXPECT_TRUE(diags.hasCode("SLP110")) << diags.toString();
}

TEST(ShapeInfer, FloatCrossEntropyTargetsAreCaught)
{
    // targets -> gelu -> cross_entropy: the class targets became real.
    auto g = std::make_shared<graph::Graph>();
    graph::Node* logits =
        g->createNode(graph::NodeKind::Placeholder, "logits");
    logits->setShapes({{4, 10}});
    graph::Node* targets =
        g->createNode(graph::NodeKind::Placeholder, "targets");
    targets->setShapes({{4}});
    graph::Node* gelu = g->createNode(graph::NodeKind::CallOp, "gelu");
    gelu->setOp(graph::OpKind::Gelu);
    gelu->addInput(targets);
    gelu->setShapes({{4}});
    graph::Node* loss = g->createNode(graph::NodeKind::CallOp, "loss");
    loss->setOp(graph::OpKind::CrossEntropyOp);
    loss->addInput(logits);
    loss->addInput(gelu);
    loss->setShapes({{1}});
    graph::Node* out = g->createNode(graph::NodeKind::Output, "out");
    out->addInput(loss);
    out->setShapes({{1}});
    g->setOutputNode(out);

    Diagnostics diags;
    analysis::inferGraphShapes(*g, "", diags);
    EXPECT_TRUE(diags.hasCode("SLP111")) << diags.toString();
    EXPECT_FALSE(diags.hasCode("SLP103")) << diags.toString();

    // Fed the targets directly, the same loss is clean.
    loss->replaceInput(gelu, targets);
    Diagnostics clean;
    analysis::inferGraphShapes(*g, "", clean);
    EXPECT_FALSE(clean.hasErrors()) << clean.toString();
}

TEST(ShapeInfer, AllGatherExtentNotAMultipleIsCaught)
{
    // The graph does not record the world size, so an all-gather may
    // declare any multiple of its input extent on the gather axis — but
    // only a multiple.
    auto build = [](const Shape& declared) {
        auto g = std::make_shared<graph::Graph>();
        graph::Node* x = g->createNode(graph::NodeKind::Placeholder, "x");
        x->setShapes({{2, 3}});
        graph::Node* ag = g->createNode(graph::NodeKind::CallOp, "ag");
        ag->setOp(graph::OpKind::AllGather);
        ag->setAttr("axis", int64_t{-1});
        ag->addInput(x);
        ag->setShapes({declared});
        graph::Node* out = g->createNode(graph::NodeKind::Output, "out");
        out->addInput(ag);
        out->setShapes({declared});
        g->setOutputNode(out);
        Diagnostics diags;
        analysis::inferGraphShapes(*g, "", diags);
        return diags;
    };
    const Diagnostics gathered = build({2, 6});
    EXPECT_FALSE(gathered.hasErrors()) << gathered.toString();
    const Diagnostics ragged = build({2, 7});
    EXPECT_TRUE(ragged.hasCode("SLP101")) << ragged.toString();
    EXPECT_FALSE(ragged.hasCode("SLP103")) << ragged.toString();
}

// --- acceptance: unsafe in-place mark in a memory plan --------------------

/** x -> gelu a -> add(a, x): x stays live until the add. */
std::shared_ptr<graph::Graph>
buildAliasGraph()
{
    auto g = std::make_shared<graph::Graph>();
    graph::Node* x = g->createNode(graph::NodeKind::Placeholder, "x");
    x->setShapes({{2, 4}});
    graph::Node* a = g->createNode(graph::NodeKind::CallOp, "a");
    a->setOp(graph::OpKind::Gelu);
    a->addInput(x);
    a->setShapes({{2, 4}});
    graph::Node* add = g->createNode(graph::NodeKind::CallOp, "add");
    add->setOp(graph::OpKind::Add);
    add->addInput(a);
    add->addInput(x);
    add->setShapes({{2, 4}});
    graph::Node* out = g->createNode(graph::NodeKind::Output, "out");
    out->addInput(add);
    out->setShapes({{2, 4}});
    g->setOutputNode(out);
    return g;
}

TEST(MemPlanAudit, PlannerOutputAuditsClean)
{
    auto g = buildAliasGraph();
    graph::MemPlan plan = *graph::buildMemPlan(*g, {{2, 4}});
    Diagnostics diags;
    analysis::auditMemPlan(*g, plan, "", diags);
    EXPECT_FALSE(diags.hasErrors()) << diags.toString();
}

TEST(MemPlanAudit, UnsafeInplaceMarkIsCaught)
{
    auto g = buildAliasGraph();
    graph::MemPlan plan = *graph::buildMemPlan(*g, {{2, 4}});
    // Forge the bug the planner must never produce: gelu overwrites x
    // in place while the later add still reads x.
    const graph::Node* gelu = g->nodes()[1];
    ASSERT_EQ(gelu->op(), graph::OpKind::Gelu);
    plan.actions[gelu->id()].inplace = true;

    Diagnostics diags;
    analysis::auditMemPlan(*g, plan, "", diags);
    EXPECT_TRUE(diags.hasCode("SLP403")) << diags.toString();
}

TEST(MemPlanAudit, ReleaseWhileLiveIsCaught)
{
    auto g = buildAliasGraph();
    graph::MemPlan plan = *graph::buildMemPlan(*g, {{2, 4}});
    const graph::Node* x = g->nodes()[0];
    const graph::Node* gelu = g->nodes()[1];
    plan.actions[gelu->id()].release_after.push_back(x->id());

    Diagnostics diags;
    analysis::auditMemPlan(*g, plan, "", diags);
    EXPECT_TRUE(diags.hasCode("SLP401")) << diags.toString();
}

TEST(MemPlanAudit, ReleaseOfOutputOperandIsCaught)
{
    auto g = buildAliasGraph();
    graph::MemPlan plan = *graph::buildMemPlan(*g, {{2, 4}});
    const graph::Node* add = g->nodes()[2];
    plan.actions[add->id()].release_after.push_back(add->id());

    Diagnostics diags;
    analysis::auditMemPlan(*g, plan, "", diags);
    EXPECT_TRUE(diags.hasCode("SLP402")) << diags.toString();
}

TEST(MemPlanAudit, ReleaseOfForeignIdIsCaught)
{
    auto g = buildAliasGraph();
    graph::MemPlan plan = *graph::buildMemPlan(*g, {{2, 4}});
    const graph::Node* gelu = g->nodes()[1];
    plan.actions[gelu->id()].release_after.push_back(9999);

    Diagnostics diags;
    analysis::auditMemPlan(*g, plan, "", diags);
    EXPECT_TRUE(diags.hasCode("SLP404")) << diags.toString();
}

// --- the gates ------------------------------------------------------------

TEST(Gates, StaticLintFailsBeforeAnyNumericVerification)
{
    // The broken schedule must be rejected before verifyEndToEnd asks
    // for a single input tensor — static before numeric (stage order).
    LintOn on;
    auto model = models::buildTinyModel("bert");
    model->initializeParams(17);
    nn::ModulePtr reference = model->clone();
    auto sch = core::Schedule::create(model, 2);
    const std::string ffn = findFfn(*model);
    ASSERT_FALSE(ffn.empty());
    (*sch)[ffn]["fc2"].shard("weight", 1); // missing sync

    int input_gen_calls = 0;
    core::VerifyOptions vopts;
    vopts.input_gen = [&input_gen_calls](int trial) {
        ++input_gen_calls;
        return std::vector<Tensor>{Tensor::randint({2, 8}, 64, 90 + trial)};
    };
    EXPECT_THROW(core::verifyEndToEnd(*reference, *sch, vopts),
                 StaticLintError);
    EXPECT_EQ(input_gen_calls, 0);
}

TEST(Gates, VerifyEndToEndUsesTheCustomInputGen)
{
    LintOn on;
    auto model = models::buildTinyModel("bert");
    model->initializeParams(19);
    nn::ModulePtr reference = model->clone();
    auto sch = core::Schedule::create(model, 2);
    core::autoShard(*sch);

    int input_gen_calls = 0;
    core::VerifyOptions vopts;
    vopts.input_gen = [&input_gen_calls](int trial) {
        ++input_gen_calls;
        return std::vector<Tensor>{Tensor::randint({2, 8}, 64, 70 + trial)};
    };
    core::verifyEndToEnd(*reference, *sch, vopts);
    EXPECT_EQ(input_gen_calls, vopts.num_inputs);
}

TEST(Gates, CheckGradientsPassesOnEquivalentSchedule)
{
    LintOn on;
    auto model = models::buildTinyModel("bert");
    model->initializeParams(23);
    nn::ModulePtr reference = model->clone();
    auto sch = core::Schedule::create(model, 1);

    core::VerifyOptions vopts;
    vopts.check_gradients = true;
    vopts.input_gen = [](int trial) {
        return std::vector<Tensor>{Tensor::randint({2, 8}, 64, 80 + trial)};
    };
    core::verifyEndToEnd(*reference, *sch, vopts);
}

TEST(Gates, CheckGradientsReportsStructureMismatch)
{
    // Gradient comparison requires structure-compatible schedules; the
    // mismatch (a replacement that dropped a parameter) must be named.
    LintOn on;
    auto reference = std::make_shared<nn::Sequential>();
    reference->append(std::make_shared<nn::Linear>(4, 8, /*bias=*/true));
    reference->initializeParams(3);
    auto replaced = std::make_shared<nn::Sequential>();
    auto no_bias = std::make_shared<nn::Linear>(4, 8, /*bias=*/false);
    no_bias->initializeParams(5);
    no_bias->setParamTensor(
        "weight", reference->child("0")->paramTensor("weight"));
    replaced->append(no_bias);
    // Zero the reference bias so the forward passes stay identical and
    // verification reaches the gradient stage.
    reference->child("0")->setParamTensor("bias", Tensor::zeros({8}));

    auto sch = core::Schedule::create(replaced, 1);
    core::VerifyOptions vopts;
    vopts.check_gradients = true;
    vopts.input_shapes = {{2, 4}};
    try {
        core::verifyEndToEnd(*reference, *sch, vopts);
        FAIL() << "gradient structure mismatch was not reported";
    } catch (const StaticLintError&) {
        FAIL() << "the static stage misfired; this is a numeric-stage case";
    } catch (const SlapoError& e) {
        EXPECT_NE(std::string(e.what()).find("parameter count"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Gates, ReplicateRejectsBrokenSchedules)
{
    LintOn on;
    auto model = models::buildTinyModel("bert");
    auto sch = core::Schedule::create(model, 2);
    const std::string ffn = findFfn(*model);
    ASSERT_FALSE(ffn.empty());
    (*sch)[ffn]["fc2"].shard("weight", 1); // missing sync

    runtime::DistExecutor executor(2);
    EXPECT_THROW(executor.replicate(*model), StaticLintError);
}

TEST(Gates, DisabledLintSkipsTheGate)
{
    auto model = models::buildTinyModel("bert");
    auto sch = core::Schedule::create(model, 2);
    const std::string ffn = findFfn(*model);
    ASSERT_FALSE(ffn.empty());
    (*sch)[ffn]["fc2"].shard("weight", 1); // missing sync

    analysis::setLintEnabled(false);
    Diagnostics diags = analysis::enforceLint(*model, 2, "test.disabled");
    analysis::setLintEnabled(true);
    EXPECT_TRUE(diags.empty());
    EXPECT_THROW(analysis::enforceLint(*model, 2, "test.enabled"),
                 StaticLintError);
}

// --- tuner trial admission ------------------------------------------------

TEST(Gates, TunerRecordsStaticallyPrunedTrials)
{
    LintOn on;
    const std::string log = scratchPath("tuner_lint.jsonl");
    obs::openRunLog(log);

    auto bad = models::buildTinyModel("bert");
    auto bad_sch = core::Schedule::create(bad, 2);
    const std::string ffn = findFfn(*bad);
    ASSERT_FALSE(ffn.empty());
    (*bad_sch)[ffn]["fc2"].shard("weight", 1); // missing sync

    tuner::SearchSpace space;
    space.addVar("use_tp", {0, 1});
    tuner::EvalFn eval = [&bad](const tuner::Config& c) {
        if (c.at("use_tp") > 0) {
            analysis::enforceLint(*bad, 2, "tuner.trial");
        }
        return 1.0;
    };
    tuner::TuneResult result = tuner::exhaustiveSearch(space, eval);
    obs::closeRunLog();

    // Both configs evaluated; the invalid one scored 0 and lost.
    EXPECT_EQ(result.evaluated, 2);
    EXPECT_EQ(result.best.at("use_tp"), 0);
    EXPECT_EQ(result.best_value, 1.0);

    bool saw_pruned = false;
    for (const std::string& l : readLines(log)) {
        if (l.find("\"kind\":\"tuner.trial\"") == std::string::npos ||
            l.find("\"pruned_static\":true") == std::string::npos) {
            continue;
        }
        saw_pruned = true;
        EXPECT_TRUE(JsonValidator(l).valid()) << l;
        EXPECT_NE(l.find("\"lint_codes\":\"SLP231\""), std::string::npos)
            << l;
        EXPECT_NE(l.find("\"value\":0"), std::string::npos) << l;
    }
    EXPECT_TRUE(saw_pruned);
}

// --- run-log records and JSON emission ------------------------------------

TEST(Lint, RunLogRecordIsSchemaStamped)
{
    LintOn on;
    const std::string log = scratchPath("lint_records.jsonl");
    obs::openRunLog(log);
    auto model = models::buildTinyModel("bert");
    analysis::enforceLint(*model, 1, "test.site");
    obs::closeRunLog();

    bool saw_lint = false;
    for (const std::string& l : readLines(log)) {
        if (l.find("\"kind\":\"lint\"") == std::string::npos) {
            continue;
        }
        saw_lint = true;
        EXPECT_TRUE(JsonValidator(l).valid()) << l;
        EXPECT_NE(l.find("\"schema_version\""), std::string::npos) << l;
        EXPECT_NE(l.find("\"site\":\"test.site\""), std::string::npos) << l;
        EXPECT_NE(l.find("\"passed\":true"), std::string::npos) << l;
        EXPECT_NE(l.find("\"wall_ns\""), std::string::npos) << l;
    }
    EXPECT_TRUE(saw_lint);
}

TEST(Lint, DiagnosticsJsonIsValid)
{
    auto model = models::buildTinyModel("bert");
    auto sch = core::Schedule::create(model, 2);
    const std::string ffn = findFfn(*model);
    ASSERT_FALSE(ffn.empty());
    (*sch)[ffn]["fc2"].shard("weight", 1);

    Diagnostics diags = analysis::lintModule(*model, 2);
    ASSERT_TRUE(diags.hasErrors());
    EXPECT_TRUE(JsonValidator(diags.toJson()).valid()) << diags.toJson();
    EXPECT_TRUE(JsonValidator(diags.diagnosticsJson()).valid());
    EXPECT_NE(diags.toJson().find("\"kind\":\"lint\""), std::string::npos);
    EXPECT_NE(diags.toJson().find("\"schema_version\""), std::string::npos);

    // The thrown gate error carries the same report plus the site.
    try {
        analysis::enforceLint(*model, 2, "test.json");
        FAIL() << "expected StaticLintError";
    } catch (const StaticLintError& e) {
        EXPECT_EQ(e.site(), "test.json");
        EXPECT_TRUE(e.diagnostics().hasCode("SLP231"));
        EXPECT_NE(std::string(e.what()).find("SLP231"), std::string::npos);
    }
}

// --- performance ----------------------------------------------------------

TEST(Lint, FullLintOfScheduledTransformerIsFast)
{
    // The gate sits on materialization and tuner admission: it must be
    // paid-for-free cheap. < 5 ms for a fully scheduled transformer.
    auto model = models::buildTinyModel("bert");
    auto sch = core::Schedule::create(model, 2);
    core::autoShard(*sch);
    nn::TraceOptions topts;
    topts.flatten = true;
    for (auto& [path, m] : model->namedModules()) {
        if (m->typeName() == "FFN") {
            (*sch)[path].trace({{2, 8, 16}}, topts);
        }
    }

    // Warm up (first call touches allocators, builds memplan caches).
    analysis::lintModule(*model, 2);

    double best_ms = 1e9;
    for (int i = 0; i < 5; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        Diagnostics diags = analysis::lintModule(*model, 2);
        const double ms = std::chrono::duration_cast<
                              std::chrono::duration<double, std::milli>>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        best_ms = std::min(best_ms, ms);
        ASSERT_FALSE(diags.hasErrors());
    }
    EXPECT_LT(best_ms, 5.0);
}

} // namespace
} // namespace slapo
