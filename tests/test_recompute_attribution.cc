/**
 * @file
 * Checkpoint recompute attribution: kernels a checkpointed child re-runs
 * during backward are recorded under the child's full dotted module path,
 * next to its forward-pass rows.
 */
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/schedule.h"
#include "models/registry.h"
#include "obs/provenance.h"
#include "obs/step_report.h"
#include "runtime/autograd.h"
#include "runtime/trainer.h"

namespace slapo {
namespace {

bool
isBackwardRow(const std::string& op)
{
    return op.size() > 4 && op.compare(op.size() - 4, 4, ".bwd") == 0;
}

TEST(Attribution, CheckpointRecomputeKeepsChildModulePath)
{
    obs::clearProvenance();
    auto model =
        runtime::withCrossEntropyLoss(models::buildTinyModel("bert"));
    model->initializeParams(17);
    auto sch = core::Schedule::create(model);
    (*sch)["model.encoder.layer.1"].checkpoint();

    runtime::Trainer trainer(model);
    std::vector<std::vector<Tensor>> micros = {
        {Tensor::randint({2, 8}, 64, 18), Tensor::randint({2, 8}, 64, 19)},
    };
    obs::setStepReportsEnabled(true);
    trainer.step(micros);
    const obs::StepReport report = trainer.lastStepReport();
    obs::setStepReportsEnabled(false);

    // Forward-row counts per layer, keyed by op and the path below the
    // layer index.
    const std::string prefix = "model.encoder.layer.";
    std::map<std::string, int64_t> forward_rows[2];
    for (const obs::AttributedOp& op : report.ops) {
        const std::string& path = op.module_path;
        if (path.find("attention") == std::string::npos &&
            path.find("ffn") == std::string::npos) {
            continue;
        }
        ASSERT_EQ(path.rfind(prefix, 0), 0u)
            << op.op << " recorded at '" << path << "'";
        const std::string rest = path.substr(prefix.size());
        const std::string index = rest.substr(0, rest.find('.'));
        ASSERT_TRUE(index == "0" || index == "1")
            << op.op << " recorded at '" << path
            << "', which lacks the layer index";
        if (!isBackwardRow(op.op)) {
            forward_rows[index == "1"][op.op + " " + rest.substr(1)] +=
                op.count;
        }
    }

    // The checkpointed layer runs its forward twice — in the forward pass
    // and recomputed in backward — both under its own path.
    ASSERT_FALSE(forward_rows[0].empty());
    ASSERT_EQ(forward_rows[0].size(), forward_rows[1].size());
    for (const auto& [key, count] : forward_rows[0]) {
        EXPECT_EQ(forward_rows[1][key], 2 * count) << key;
    }
    obs::clearProvenance();
}

} // namespace
} // namespace slapo
