#include "web/dom.hpp"

#include <algorithm>

namespace eab::web {

std::unique_ptr<DomNode> DomNode::element(std::string tag,
                                           Attributes attrs) {
  // Fold repeated names in place: the first keeps its slot, the last value
  // wins, exactly as a set_attr per attribute would leave them.
  auto kept = attrs.begin();
  for (auto it = attrs.begin(); it != attrs.end(); ++it) {
    const auto same = std::find_if(attrs.begin(), kept, [&](const auto& attr) {
      return attr.first == it->first;
    });
    if (same != kept) {
      same->second = std::move(it->second);
    } else {
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
  }
  attrs.erase(kept, attrs.end());
  auto node = std::unique_ptr<DomNode>(new DomNode(Type::kElement));
  node->tag_ = std::move(tag);
  node->attrs_ = std::move(attrs);
  return node;
}

std::unique_ptr<DomNode> DomNode::text(std::string content) {
  auto node = std::unique_ptr<DomNode>(new DomNode(Type::kText));
  node->content_ = std::move(content);
  return node;
}

const std::string& DomNode::attr(std::string_view name) const {
  static const std::string kEmpty;
  for (const auto& [key, value] : attrs_) {
    if (key == name) return value;
  }
  return kEmpty;
}

bool DomNode::has_attr(std::string_view name) const {
  for (const auto& [key, value] : attrs_) {
    if (key == name) return true;
  }
  return false;
}

void DomNode::set_attr(std::string name, std::string value) {
  for (auto& [key, existing] : attrs_) {
    if (key == name) {
      existing = std::move(value);
      return;
    }
  }
  attrs_.emplace_back(std::move(name), std::move(value));
}

DomNode& DomNode::append_child(std::unique_ptr<DomNode> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  return *children_.back();
}

std::size_t DomNode::subtree_size() const {
  std::size_t n = 1;
  for (const auto& child : children_) n += child->subtree_size();
  return n;
}

std::size_t DomNode::subtree_depth() const {
  std::size_t deepest = 0;
  for (const auto& child : children_) {
    deepest = std::max(deepest, child->subtree_depth());
  }
  return deepest + 1;
}

void DomNode::visit(const std::function<void(const DomNode&)>& fn) const {
  fn(*this);
  for (const auto& child : children_) child->visit(fn);
}

std::string DomNode::text_content() const {
  std::string out;
  visit([&out](const DomNode& node) {
    if (node.is_text()) out += node.content();
  });
  return out;
}

DomTree::DomTree() : root_(DomNode::element("#document")) {}

std::vector<const DomNode*> DomTree::find_all(const std::string& tag) const {
  std::vector<const DomNode*> found;
  root_->visit([&](const DomNode& node) {
    if (node.is_element() && node.tag() == tag) found.push_back(&node);
  });
  return found;
}

const DomNode* DomTree::find_first(const std::string& tag) const {
  auto all = find_all(tag);
  return all.empty() ? nullptr : all.front();
}

std::string DomTree::signature() const {
  std::string sig;
  // Attributes sorted so insertion order does not affect equality; the
  // sort moves pointers, one buffer reused for every element.
  std::vector<const std::pair<std::string, std::string>*> sorted;
  root_->visit([&sig, &sorted](const DomNode& node) {
    if (node.is_element()) {
      sig += '<';
      sig += node.tag();
      sorted.clear();
      for (const auto& attr : node.attrs()) sorted.push_back(&attr);
      std::sort(sorted.begin(), sorted.end(),
                [](const auto* a, const auto* b) { return *a < *b; });
      for (const auto* attr : sorted) {
        sig += ' ';
        sig += attr->first;
        sig += '=';
        sig += attr->second;
      }
      sig += '>';
    } else {
      sig += "#t";
      sig += std::to_string(node.content().size());
    }
  });
  return sig;
}

}  // namespace eab::web
