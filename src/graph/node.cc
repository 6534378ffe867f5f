#include "graph/node.h"

#include <algorithm>
#include <sstream>

#include "graph/op_schema.h"

namespace slapo {
namespace graph {

const char*
opKindName(OpKind kind)
{
    return opSchema(kind).name;
}

void
Node::replaceInput(Node* from, Node* to)
{
    for (Node*& in : inputs_) {
        if (in == from) {
            in = to;
        }
    }
}

const Shape&
Node::shape(size_t i) const
{
    SLAPO_ASSERT(i < shapes_.size(),
                 "node " << name_ << " has no output " << i);
    return shapes_[i];
}

namespace {

const Attr&
findAttr(const AttrMap& attrs, const std::string& key, std::string_view owner)
{
    auto it = attrs.find(key);
    SLAPO_CHECK(it != attrs.end(), "node " << owner << ": missing attr " << key);
    return it->second;
}

template <typename V>
const V&
typed(const Attr& a, const std::string& key, std::string_view owner)
{
    const V* v = std::get_if<V>(&a);
    SLAPO_CHECK(v != nullptr, "node " << owner << ": attr " << key
                                      << " has the wrong type");
    return *v;
}

} // namespace

int64_t
attrInt(const AttrMap& attrs, const std::string& key, std::string_view owner)
{
    const Attr& a = findAttr(attrs, key, owner);
    if (const auto* v = std::get_if<int64_t>(&a)) return *v;
    return static_cast<int64_t>(typed<double>(a, key, owner));
}

double
attrFloat(const AttrMap& attrs, const std::string& key, std::string_view owner)
{
    const Attr& a = findAttr(attrs, key, owner);
    if (const auto* v = std::get_if<double>(&a)) return *v;
    return static_cast<double>(typed<int64_t>(a, key, owner));
}

const std::string&
attrStr(const AttrMap& attrs, const std::string& key, std::string_view owner)
{
    return typed<std::string>(findAttr(attrs, key, owner), key, owner);
}

const std::vector<int64_t>&
attrInts(const AttrMap& attrs, const std::string& key, std::string_view owner)
{
    return typed<std::vector<int64_t>>(findAttr(attrs, key, owner), key,
                                       owner);
}

std::string
Node::signature() const
{
    switch (kind_) {
      case NodeKind::CallOp:
        return opKindName(op_);
      case NodeKind::CallModule:
        return target_;
      case NodeKind::Placeholder:
        return "placeholder";
      case NodeKind::GetParam:
        return "get_param";
      case NodeKind::FusedOp:
        return "fused";
      case NodeKind::TupleGet:
        return "tuple_get";
      case NodeKind::Output:
        return "output";
    }
    return "?";
}

std::string
Node::toString() const
{
    std::ostringstream os;
    os << "%" << name_ << " = ";
    switch (kind_) {
      case NodeKind::Placeholder: os << "placeholder"; break;
      case NodeKind::GetParam: os << "get_param[" << target_ << "]"; break;
      case NodeKind::CallOp: os << "call_op[" << opKindName(op_) << "]"; break;
      case NodeKind::CallModule: os << "call_module[" << target_ << "]"; break;
      case NodeKind::FusedOp: os << "fused_op"; break;
      case NodeKind::TupleGet: os << "tuple_get[" << attrInt("index") << "]"; break;
      case NodeKind::Output: os << "output"; break;
    }
    os << "(";
    for (size_t i = 0; i < inputs_.size(); ++i) {
        if (i) os << ", ";
        os << "%" << inputs_[i]->name();
    }
    os << ")";
    if (!shapes_.empty()) {
        os << " : ";
        for (size_t i = 0; i < shapes_.size(); ++i) {
            if (i) os << ", ";
            os << shapeToString(shapes_[i]);
        }
    }
    if (checkpointed_) os << " [ckpt]";
    return os.str();
}

} // namespace graph
} // namespace slapo
