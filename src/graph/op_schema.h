/**
 * @file
 * The op table: what each OpKind means, written down once.
 *
 * torch.fx nodes get their meaning from a registered call target, and
 * TorchScript's interpreter sits on one operator registry; this table is
 * the reproduction's equivalent. Every consumer reads it: nn::F and the
 * graph interpreter (shape, cost, kernel — via nn::dispatchOp), the
 * memory planner and its audit (in-place eligible iff the op has a
 * twin), the autograd engine (backward rule), opKindName, and the static
 * shape checker (analysis/shape_infer.h), which runs the same arity
 * check and shape rule on meta operands and reads the real-output
 * column. Adding an op: an OpKind, one entry in op_schema.cc and one
 * nn::F wrapper (DESIGN.md, "Adding an op").
 */
#pragma once

#include <climits>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/node.h"

namespace slapo {
namespace graph {

/** One op invocation as the table's rules see it: operands plus the
 * attributes (a node's own, or those an nn::F wrapper collected). */
class OpArgs
{
  public:
    OpArgs(std::span<const Tensor* const> inputs, const AttrMap& attrs,
           const char* op)
        : inputs_(inputs), attrs_(attrs), op_(op)
    {
    }

    size_t size() const { return inputs_.size(); }
    const Tensor& operator[](size_t i) const { return *inputs_[i]; }
    const Shape& shape(size_t i) const { return inputs_[i]->shape(); }

    int64_t attrInt(const std::string& key) const { return graph::attrInt(attrs_, key, op_); }
    /** Float attribute at kernel precision. */
    float attrF32(const std::string& key) const
    {
        return static_cast<float>(graph::attrFloat(attrs_, key, op_));
    }
    const std::vector<int64_t>& attrInts(const std::string& key) const
    {
        return graph::attrInts(attrs_, key, op_);
    }

  private:
    std::span<const Tensor* const> inputs_;
    const AttrMap& attrs_;
    const char* op_;
};

/** `OpSchema::max_arity` of ops without an upper bound (concat). */
inline constexpr int kVariadic = INT_MAX;

/** Whether an op's output is real-valued, for the static integrality
 * checks (SLP110/SLP111): when any operand is (add, reshape, concat),
 * always (softmax, matmul), or never (range_mask's 0/1 mask). */
enum class RealOut : uint8_t { IfAny, Always, Never };

/** Everything the system knows about one OpKind. */
struct OpSchema
{
    OpKind kind;
    /** Node names, pattern regexes, profiler and trace rows. */
    const char* name;
    int min_arity;
    int max_arity;
    RealOut real_out;
    /** Output shape; raises SlapoError on operands or attributes the op
     * rejects. It runs before every kernel and in the static checker, so
     * it range-checks everything it reads, and its checks allocate
     * nothing. */
    Shape (*shape)(const OpArgs& args);
    /** FLOPs (collectives: payload elements); nullptr costs nothing. */
    double (*cost)(const OpArgs& args, const Shape& out);
    /** Out-of-place kernel over materialized operands. */
    Tensor (*kernel)(const OpArgs& args);
    /** In-place twin or nullptr: overwrites `out` — operand 0, dying,
     * uniquely owned, shaped like every operand — with the exact bits
     * `kernel` returns. */
    void (*inplace)(Tensor& out, const OpArgs& args) = nullptr;
    /** Gradients w.r.t. every operand from the operands, output `y` and
     * upstream gradient `g`; nullptr for forward/simulation-only ops. */
    std::vector<Tensor> (*backward)(const OpArgs& x, const Tensor& y,
                                    const Tensor& g) = nullptr;
    /** Metadata only (reshape, identity): no kernel record, no bytes. */
    bool is_view = false;
    /** Collective: profiled as a CommRecord of `cost` elements. */
    bool is_comm = false;
};

/** The table entry of `kind`. */
const OpSchema& opSchema(OpKind kind);

/** Raises SlapoError unless `op` takes `arity` operands. */
void checkArity(const OpSchema& op, size_t arity);

} // namespace graph
} // namespace slapo
